package sqlfront

import "hiengine/internal/core"

// ExecStream opens a streaming SELECT on the session's own worker: the
// tests' way into OpenStream.
func (s *Session) ExecStream(sql string, args ...core.Value) (*RowStream, error) {
	rs := new(RowStream)
	if err := s.OpenStream(rs, s.worker, sql, args...); err != nil {
		return nil, err
	}
	return rs, nil
}

// NextRow returns the next row. ok=false means the stream is finished: err
// then carries the terminal status (nil on clean exhaustion; the scan or
// its read-only commit error otherwise). After ok=false the stream is
// closed and needs no Close.
func (rs *RowStream) NextRow() (row core.Row, ok bool, err error) {
	var one RowBuf
	if _, err := rs.NextPage(&one, 1, 0); err != nil || one.N == 0 {
		return nil, false, err
	}
	row, err = core.DecodeRow(one.Data)
	return row, err == nil, err
}
