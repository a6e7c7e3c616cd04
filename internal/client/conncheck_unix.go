//go:build unix

package client

import (
	"net"
	"syscall"
)

// readable reports whether a read on nc would return at once -- with data,
// end of stream or an error -- by one non-blocking recvfrom(MSG_PEEK) on its
// descriptor (the connCheck of go-sql-driver/mysql, peeking instead of
// reading). It never waits and consumes nothing. nc's read deadline must not
// have lapsed: the runtime refuses a lapsed descriptor before the peek runs,
// which reads as readable.
func readable(nc net.Conn) bool {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return true
	}
	var perr error
	err = rc.Read(func(fd uintptr) bool {
		var b [1]byte
		_, _, perr = syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		return true // whatever the answer, do not wait for the descriptor
	})
	return err != nil || (perr != syscall.EAGAIN && perr != syscall.EWOULDBLOCK)
}
