package core

// A version publishes its payload as a *[]byte (Version.data), so that
// eviction is one atomic store and a reload another. A write's payload lies
// in its transaction's log buffer and then in the log; the payloads here are
// for the rows that must be private for good -- a record that straddles a
// storage chunk, an in-doubt write rebuilt by recovery. newPayload allocates
// the slice header a version points at and the bytes it describes together:
// one allocation per payload instead of a boxed header plus a buffer, and
// dropping the pointer frees both.

// boxed is a payload's slice header and, behind it, the array it slices.
type boxed[A any] struct {
	h []byte
	a A
}

func box[A any](n int, slice func(*A) []byte) *[]byte {
	b := new(boxed[A])
	b.h = slice(&b.a)[:n:n]
	return &b.h
}

// newPayload returns a zeroed n-byte payload buffer. The arrays are sized so
// that header and bytes fill one of the allocator's size classes (24 + 40 =
// 64, 96, 128, ... bytes): no more is wasted than by a buffer of its own. A
// payload beyond the largest is that: a buffer and a boxed header.
func newPayload(n int) *[]byte {
	switch {
	case n <= 40:
		return box(n, func(a *[40]byte) []byte { return a[:] })
	case n <= 72:
		return box(n, func(a *[72]byte) []byte { return a[:] })
	case n <= 104:
		return box(n, func(a *[104]byte) []byte { return a[:] })
	case n <= 136:
		return box(n, func(a *[136]byte) []byte { return a[:] })
	case n <= 168:
		return box(n, func(a *[168]byte) []byte { return a[:] })
	case n <= 232:
		return box(n, func(a *[232]byte) []byte { return a[:] })
	case n <= 296:
		return box(n, func(a *[296]byte) []byte { return a[:] })
	case n <= 488:
		return box(n, func(a *[488]byte) []byte { return a[:] })
	}
	p := make([]byte, n)
	return &p
}

// copyPayload returns a private copy of an encoded row as a payload.
func copyPayload(src []byte) *[]byte {
	p := newPayload(len(src))
	copy(*p, src)
	return p
}
