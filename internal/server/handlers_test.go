package server

import (
	"testing"
	"time"

	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/wire"
)

// TestEveryRequestOpcodeIsHandled: the dispatch table covers exactly the
// opcodes the frame reader admits, which is what lets conn.handle index it
// without a fallback.
func TestEveryRequestOpcodeIsHandled(t *testing.T) {
	admitted := make(map[wire.Op]bool)
	for _, op := range wire.RequestOps() {
		admitted[op] = true
	}
	for op := wire.Op(0); op <= wire.MaxOp; op++ {
		if has := handlers[op] != nil; has != admitted[op] {
			t.Errorf("opcode %s: admitted by the frame reader = %v, has a handler = %v", op, admitted[op], has)
		}
	}
}

// TestCommitAnswersInFlight: one connection with many commits awaiting
// durability at once -- plain commits and atomic batches, twice as many as
// the connection keeps answer records for, over rounds that reuse them --
// gets each answered once, under its own request id, with its own body: a
// batch's affected vector, a commit's CSN token. Appends are slowed so the
// read loop runs ahead of durability and the commits overlap.
func TestCommitAnswersInFlight(t *testing.T) {
	h := newHarnessModel(t, &delay.Model{ComputePMAppend: 200 * time.Microsecond}, nil, nil)
	if _, err := h.client(t, nil).Exec("CREATE TABLE inflight (id INT, v INT, PRIMARY KEY(id))"); err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, h.addr)
	insert := "INSERT INTO inflight VALUES (?, ?)"
	next := int64(0)
	for round := 0; round < 3; round++ {
		var all, commits, batches []uint64
		for i := 0; i < 2*maxFreeAnswers; i++ {
			next += 3
			all = append(all,
				rc.send(wire.OpBegin, nil),
				rc.send(wire.OpExec, wire.AppendExec(nil, insert, []core.Value{core.I(next), core.I(1)})))
			commits = append(commits, rc.send(wire.OpCommit, nil))
			batches = append(batches, rc.send(wire.OpExecBatch, wire.AppendExecBatch(nil, []wire.BatchStmt{
				{SQL: insert, Args: []core.Value{core.I(next + 1), core.I(2)}},
				{SQL: insert, Args: []core.Value{core.I(next + 2), core.I(3)}},
			})))
		}
		all = append(append(all, commits...), batches...)
		got := rc.await(all...)
		for _, id := range all {
			if err := got[id].Err(); err != nil {
				t.Fatalf("round %d, request %d: %v", round, id, err)
			}
		}
		for _, id := range commits {
			if _, csn, err := wire.DecodeResultCSN(got[id].Body, nil); err != nil || csn == 0 {
				t.Fatalf("round %d, commit %d: csn %d, %v", round, id, csn, err)
			}
		}
		for _, id := range batches {
			if affected, csn, err := wire.DecodeBatchResult(got[id].Body); err != nil || csn == 0 || len(affected) != 2 || affected[0] != 1 || affected[1] != 1 {
				t.Fatalf("round %d, batch %d: affected %v, csn %d, %v", round, id, affected, csn, err)
			}
		}
	}
	res, err := h.client(t, nil).Exec("SELECT v FROM inflight")
	if err != nil || len(res.Rows) != int(next) {
		t.Fatalf("%d rows after the rounds, want %d (%v)", len(res.Rows), next, err)
	}
}
