//go:build !unix

package client

import "net"

// readable is the lease-time peek of conncheck_unix.go; without a
// descriptor to peek at, a pooled connection is taken on trust.
func readable(net.Conn) bool { return false }
