package bench

import (
	"fmt"
	"time"

	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/wire"
)

// Scan loads one table over the wire two ways -- single-row INSERT round
// trips, then OpExecBatch frames of scanBatch statements -- and streams the
// whole table back through the cursor protocol (OpScanOpen/OpScanNext): the
// wire paths for results and write sets larger than one frame. Beside each
// rate stands the count that does not depend on the host: request frames
// per row, whose inverse for the read-back is rows per cursor page.
func Scan(o Options) (*Report, error) {
	const scanRows, scanBatch = 20000, 128
	n, err := serve(deployment{})
	if err != nil {
		return nil, err
	}
	defer n.Close()
	cl, err := client.New(client.Options{Addr: n.Addr(), PoolSize: 2})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	if _, err := cl.Exec("CREATE TABLE scanbench (id INT, c TEXT, PRIMARY KEY(id))"); err != nil {
		return nil, err
	}
	s, err := cl.Session()
	if err != nil {
		return nil, err
	}
	defer s.Close()

	r := &Report{
		ID:     "scan",
		Title:  "Batch writes and streamed scans over the wire",
		Header: []string{"path", "rows", "rows/s", "frames/row", "rows/frame"},
	}
	// phase times fn, which moves rows rows, and adds its row to r.
	phase := func(path string, rows int, fn func() error) (float64, error) {
		o.progress("scan: %s", path)
		frames, start := n.frames(), time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		rate := float64(rows) / time.Since(start).Seconds()
		perRow := float64(n.frames()-frames) / float64(rows)
		r.row(path, f0(float64(rows)), f0(rate), f4(perRow), f2(1/perRow))
		return rate, nil
	}

	const half = scanRows / 2
	single, err := phase("single-row INSERT (one round trip each)", half, func() error {
		for i := 0; i < half; i++ {
			if _, err := s.Exec("INSERT INTO scanbench VALUES (?, ?)", core.I(int64(i)), core.S("v")); err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	batched, err := phase(fmt.Sprintf("OpExecBatch, %d stmts/frame", scanBatch), scanRows-half, func() error {
		for i := half; i < scanRows; i += scanBatch {
			stmts := make([]wire.BatchStmt, min(scanBatch, scanRows-i))
			for j := range stmts {
				stmts[j] = wire.BatchStmt{
					SQL:  "INSERT INTO scanbench VALUES (?, ?)",
					Args: []core.Value{core.I(int64(i + j)), core.S("v")},
				}
			}
			if _, err := s.ExecBatch(stmts); err != nil {
				return fmt.Errorf("batch at %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	_, err = phase("streamed SELECT read-back", scanRows, func() error {
		rows, err := cl.Query("SELECT * FROM scanbench")
		if err != nil {
			return err
		}
		streamed := 0
		for rows.Next() {
			streamed++
		}
		if err := rows.Close(); err != nil {
			return err
		}
		if streamed != scanRows {
			return fmt.Errorf("streamed %d rows, loaded %d", streamed, scanRows)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"batching loads %s as fast as single-row round trips; the cursor's fetch hint is %d rows; streamed rows == loaded rows",
		ratio(batched, single).text, s.FetchSize()))
	if o.Stats {
		r.attachStats(n.engine.Obs())
	}
	return r, nil
}
