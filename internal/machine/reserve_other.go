//go:build !unix

package machine

// Reserve is Alloc on systems without anonymous mmap: the bytes are Go
// heap, zeroed up front.
func (d *Domain) Reserve(n int) *Buffer { return d.Alloc(n) }
