// Package admin is the HTTP admin plane for hiserver: a stdlib-only
// net/http server (own mux, never http.DefaultServeMux) exposing the
// process's observability surface on a loopback-or-operator port, separate
// from the wire-protocol data port:
//
//	/healthz        readiness probe: "ok", or 503 with the unready reason
//	/metrics        metrics in Prometheus text exposition format
//	/statusz        JSON status: uptime, build info, full metrics snapshot
//	/traces         recent/slow request traces as JSON (?min_us=N filters)
//	/clusterz       cluster topology: this node's status merged with every
//	                peer's, fetched in parallel under a bounded timeout
//	/promote        POST: promote a replica process to primary
//	/debug/pprof/   the standard Go profiling handlers
//
// The admin plane is read-only except /promote, the one control verb:
// it is POST-only, wired only when the process can promote (a replica
// with a follower), and idempotent -- promoting a primary returns its
// current epoch. Everything else never mutates engine state.
package admin

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"hiengine/internal/obs"
)

// Config wires the admin server to the process's observability state.
type Config struct {
	// Registry supplies /metrics and the /statusz snapshot (nil = empty).
	Registry *obs.Registry
	// Tracer supplies /traces (nil = endpoint reports tracing disabled).
	Tracer *obs.Tracer
	// Info adds static key/value pairs (version, addr, profile) to /statusz.
	Info map[string]string
	// Status supplies live key/value pairs (role, epoch, replication
	// watermarks) merged into /statusz on each request (nil = omitted).
	Status func() map[string]any
	// Ready, when non-nil, gates /healthz: a non-nil error turns the probe
	// into a 503 carrying the reason (fenced by a higher epoch, draining,
	// replica lag beyond threshold). Nil Ready means always ready.
	Ready func() error
	// Peers names every other node's admin address (from the shard map and
	// replica set) for /clusterz fan-out (nil = this node only).
	Peers func() []Peer
	// Promote, when non-nil, enables POST /promote: it promotes the
	// process to primary and returns the new epoch. Implementations must
	// be idempotent (promoting a primary reports its current epoch).
	Promote func() (uint64, error)
}

// Server serves the admin plane over HTTP.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	hs    *http.Server
	start time.Time
}

// New builds an admin server (not yet listening).
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, mux: http.NewServeMux(), start: time.Now()}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.HandleFunc("/traces", s.handleTraces)
	s.mux.HandleFunc("/clusterz", s.handleClusterz)
	s.mux.HandleFunc("/promote", s.handlePromote)
	// pprof.Index routes the named profiles (heap, goroutine, block, ...)
	// under the /debug/pprof/ prefix; the four below need explicit routes.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler exposes the admin mux (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve serves HTTP on ln until Shutdown or a listener error.
func (s *Server) Serve(ln net.Listener) error {
	s.hs = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	err := s.hs.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown gracefully stops a Serve-ing server.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.hs == nil {
		return nil
	}
	return s.hs.Shutdown(ctx)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.cfg.Ready != nil {
		if err := s.cfg.Ready(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "unready: %v\n", err)
			return
		}
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.cfg.Registry == nil {
		return
	}
	fmt.Fprint(w, s.cfg.Registry.Snapshot().Prometheus())
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	type statusz struct {
		Name          string            `json:"name"`
		UptimeSeconds float64           `json:"uptime_seconds"`
		GoVersion     string            `json:"go_version"`
		Goroutines    int               `json:"goroutines"`
		Info          map[string]string `json:"info,omitempty"`
		Status        map[string]any    `json:"status,omitempty"`
		Metrics       json.RawMessage   `json:"metrics,omitempty"`
	}
	st := statusz{
		UptimeSeconds: time.Since(s.start).Seconds(),
		GoVersion:     runtime.Version(),
		Goroutines:    runtime.NumGoroutine(),
		Info:          s.cfg.Info,
	}
	if s.cfg.Status != nil {
		st.Status = s.cfg.Status()
	}
	if s.cfg.Registry != nil {
		st.Name = s.cfg.Registry.Name()
		st.Metrics = json.RawMessage(s.cfg.Registry.Snapshot().JSON())
	}
	writeJSON(w, st)
}

// handlePromote promotes the process to primary (POST-only; the one
// admin verb that mutates state). 404 on processes that cannot promote,
// 405 on non-POST, 500 with the error text when promotion fails; on
// success the JSON body reports the node's new primary epoch.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Promote == nil {
		http.Error(w, "promote: not a promotable replica", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "promote: POST required", http.StatusMethodNotAllowed)
		return
	}
	epoch, err := s.cfg.Promote()
	if err != nil {
		http.Error(w, "promote: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]any{"promoted": true, "epoch": epoch})
}

// handleTraces returns the tracer's recent and slow rings, oldest first.
// ?min_us=N keeps only traces at least N microseconds long.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	minUS := int64(0)
	if v := r.URL.Query().Get("min_us"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			http.Error(w, "min_us: want a non-negative integer", http.StatusBadRequest)
			return
		}
		minUS = n
	}
	type traces struct {
		Enabled bool               `json:"enabled"`
		MinUS   int64              `json:"min_us,omitempty"`
		Recent  []*obs.TraceRecord `json:"recent"`
		Slow    []*obs.TraceRecord `json:"slow"`
	}
	out := traces{Enabled: s.cfg.Tracer != nil, MinUS: minUS}
	if t := s.cfg.Tracer; t != nil {
		out.Recent = filterTraces(t.Recent(), out.MinUS*1000)
		out.Slow = filterTraces(t.Slow(), out.MinUS*1000)
	}
	writeJSON(w, out)
}

func filterTraces(recs []*obs.TraceRecord, minNS int64) []*obs.TraceRecord {
	out := recs[:0]
	for _, rec := range recs {
		if rec.TotalNS >= minNS {
			out = append(out, rec)
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
