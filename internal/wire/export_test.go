package wire

import (
	"hiengine/internal/core"
)

// DecodeExec parses an OpExec payload, ignoring its flags.
func DecodeExec(payload []byte) (sql string, args []core.Value, err error) {
	sql, args, _, err = DecodeExecFlags(payload, nil)
	return sql, args, err
}

// DecodeTraceBlock parses a stage-timing block off the front of a traced
// response payload, returning the info and the remaining payload (the
// standard code/msg/body response). The caller fills TraceID and Hop from
// the frame.
func DecodeTraceBlock(payload []byte) (*TraceInfo, []byte, error) {
	r := reader{b: payload}
	ti := r.traceBlock()
	return ti, r.b, r.err
}
