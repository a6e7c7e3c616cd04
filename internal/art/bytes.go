package art

import "unsafe"

// NodeBytes returns the heap bytes t's nodes hold -- inner nodes with their
// prefixes, bodies and child and value arrays, and leaves -- each allocation
// rounded up to the Go allocator's size class, as runtime.MemStats counts it.
// It walks the tree on each call, so nothing on the write path keeps a count.
// The walk takes no locks: every field it reads is atomic or immutable, so
// under concurrent writers it returns a near snapshot, never a torn read.
func (t *Tree) NodeBytes() int64 { return t.root.bytes() }

func (n *node) bytes() int64 {
	if n.inner == nil {
		if len(n.key) <= leafInlineKey {
			return sizeClass(unsafe.Sizeof(struct {
				node
				buf [leafInlineKey]byte
			}{}))
		}
		return sizeClass(unsafe.Sizeof(node{})) + sizeClass(uintptr(len(n.key)))
	}
	b := sizeClass(unsafe.Sizeof(struct {
		node
		in inner
	}{})) + sizeClass(uintptr(len(n.prefix)))
	switch n.kind {
	case k16:
		b += sizeClass(unsafe.Sizeof(body16{}))
	case k48:
		b += sizeClass(unsafe.Sizeof(body48{}))
	case k256:
		b += sizeClass(unsafe.Sizeof(body256{}))
	}
	if cs := n.children(false); cs != nil {
		if n.kind != k16 { // a Node16's children are in its body
			b += sizeClass(uintptr(len(cs)) * unsafe.Sizeof(cs[0]))
		}
		for i := range cs {
			if c := cs[i].Load(); c != nil {
				b += c.bytes()
			}
		}
	}
	if vs := n.vals(false); vs != nil {
		b += sizeClass(uintptr(len(vs)) * unsafe.Sizeof(vs[0]))
	}
	if l := n.term.Load(); l != nil {
		b += l.bytes()
	}
	return b
}

// sizeClasses are the Go allocator's small-object size classes up to 4 KiB
// (runtime/sizeclasses.go). A tree allocates nothing larger: its largest
// objects are 256-entry arrays and keys and prefixes of at most MaxKeyLen.
var sizeClasses = [...]uint16{
	8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224,
	240, 256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896,
	1024, 1152, 1280, 1408, 1536, 1792, 2048, 2304, 2688, 3072, 3200, 3456, 4096,
}

// sizeClass is the bytes the allocator hands out for an n-byte object; 0
// for n = 0, which allocates nothing.
func sizeClass(n uintptr) int64 {
	if n == 0 {
		return 0
	}
	for _, c := range sizeClasses {
		if uintptr(c) >= n {
			return int64(c)
		}
	}
	return int64(n)
}
