package server

import (
	"testing"

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
