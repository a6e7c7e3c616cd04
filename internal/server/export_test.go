package server

// scribbleFrames makes s overwrite every request frame's payload once its
// handler has returned: an argument, SQL text or key that something kept past
// its request then reads 0xEE bytes instead of what the client sent. Call it
// before s serves.
func (s *Server) scribbleFrames() {
	s.handled = func(payload []byte) {
		for i := range payload {
			payload[i] = 0xEE
		}
	}
}
