package admin

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHealthzUnready(t *testing.T) {
	var reason error
	s := New(Config{Ready: func() error { return reason }})

	if code, body := get(t, s, "/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("ready healthz = %d %q", code, body)
	}
	reason = errors.New("fenced by epoch 9 (own epoch 3)")
	code, body := get(t, s, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unready healthz status = %d, want 503", code)
	}
	if !strings.Contains(body, "unready: fenced by epoch 9") {
		t.Fatalf("unready healthz body = %q, want the reason", body)
	}
	reason = nil
	if code, _ := get(t, s, "/healthz"); code != 200 {
		t.Fatalf("recovered healthz status = %d", code)
	}
}

// clusterzNodes fetches /clusterz from s and decodes the node list.
func clusterzNodes(t *testing.T, s *Server, path string) []clusterNode {
	t.Helper()
	code, body := get(t, s, path)
	if code != 200 {
		t.Fatalf("clusterz status = %d: %s", code, body)
	}
	var out struct {
		Nodes []clusterNode `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("clusterz not JSON: %v\n%s", err, body)
	}
	return out.Nodes
}

// TestClusterzMergeAndPartialFailure: /clusterz must merge every reachable
// peer's status into one view and annotate (not fail on) a dead peer.
func TestClusterzMergeAndPartialFailure(t *testing.T) {
	// Two live peers, each a real admin server over a real listener.
	mkPeer := func(role string, epoch int) *httptest.Server {
		adm := New(Config{Status: func() map[string]any {
			return map[string]any{"role": role, "epoch": epoch}
		}})
		return httptest.NewServer(adm.Handler())
	}
	p1 := mkPeer("primary", 3)
	defer p1.Close()
	p2 := mkPeer("replica", 3)
	defer p2.Close()
	// A third peer that is down: reserve an address and close it.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close()

	s := New(Config{
		Info:   map[string]string{"name": "shard0"},
		Status: func() map[string]any { return map[string]any{"role": "primary", "epoch": 5} },
		Peers: func() []Peer {
			return []Peer{
				{Name: "shard1", Addr: strings.TrimPrefix(p1.URL, "http://")},
				{Name: "replica0", Addr: strings.TrimPrefix(p2.URL, "http://")},
				{Name: "shard2", Addr: deadAddr},
			}
		},
	})

	nodes := clusterzNodes(t, s, "/clusterz?timeout_ms=1000")
	if len(nodes) != 4 {
		t.Fatalf("got %d nodes, want 4 (self + 3 peers)", len(nodes))
	}
	byName := make(map[string]clusterNode, len(nodes))
	for _, n := range nodes {
		byName[n.Name] = n
	}
	self := byName["shard0"]
	if self.Error != "" || self.Status["role"] != "primary" || self.Status["epoch"] != float64(5) {
		t.Fatalf("self node: %+v", self)
	}
	for name, role := range map[string]string{"shard1": "primary", "replica0": "replica"} {
		n := byName[name]
		if n.Error != "" || n.Status["role"] != role {
			t.Fatalf("peer %s: %+v", name, n)
		}
	}
	down := byName["shard2"]
	if down.Error == "" {
		t.Fatalf("dead peer not annotated: %+v", down)
	}
	if down.Status != nil {
		t.Fatalf("dead peer carries status: %+v", down)
	}

	if code, _ := get(t, s, "/clusterz?timeout_ms=bogus"); code != 400 {
		t.Fatalf("bad timeout_ms: status = %d", code)
	}
}

// TestClusterzNoPeers: a node with no peer list still answers with itself.
func TestClusterzNoPeers(t *testing.T) {
	s := New(Config{Status: func() map[string]any { return map[string]any{"role": "primary"} }})
	nodes := clusterzNodes(t, s, "/clusterz")
	if len(nodes) != 1 || nodes[0].Name != "self" || nodes[0].Status["role"] != "primary" {
		t.Fatalf("nodes = %+v", nodes)
	}
}
