package netutil

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sync"
)

// IPPool hands out addresses from a prefix in order, with free-list reuse.
// The SDX controller draws virtual next-hop (VNH) addresses from one of
// these; the paper uses a private /12 for the same purpose. IPPool is safe
// for concurrent use: the controller's fast path allocates from it while
// the background pass releases retired addresses into it.
type IPPool struct {
	base netip.Prefix

	mu   sync.Mutex
	next netip.Addr
	free []netip.Addr
	used map[netip.Addr]bool
}

// NewIPPool returns a pool over the given IPv4 prefix, which must be a /8
// or longer so every address's Offset fits the 24-bit VMAC tag. The network
// address itself is never allocated.
func NewIPPool(p netip.Prefix) (*IPPool, error) {
	if !p.Addr().Is4() {
		return nil, fmt.Errorf("netutil: IPPool requires an IPv4 prefix, got %v", p)
	}
	if p.Bits() < 8 {
		return nil, fmt.Errorf("netutil: IPPool prefix %v is shorter than /8", p)
	}
	p = p.Masked()
	return &IPPool{
		base: p,
		next: p.Addr().Next(),
		used: make(map[netip.Addr]bool),
	}, nil
}

// MustNewIPPool is NewIPPool for static configuration; it panics on error.
func MustNewIPPool(s string) *IPPool {
	pool, err := NewIPPool(netip.MustParsePrefix(s))
	if err != nil {
		panic(err)
	}
	return pool
}

// Alloc returns the next free address, or an error when the pool is
// exhausted.
func (p *IPPool) Alloc() (netip.Addr, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.free) > 0 {
		a := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		if !p.used[a] {
			p.used[a] = true
			return a, nil
		}
	}
	for p.base.Contains(p.next) {
		a := p.next
		p.next = p.next.Next()
		if !p.used[a] {
			p.used[a] = true
			return a, nil
		}
	}
	return netip.Addr{}, fmt.Errorf("netutil: IP pool %v exhausted", p.base)
}

// Release returns an address to the pool. Releasing an address that was not
// allocated is a no-op.
func (p *IPPool) Release(a netip.Addr) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.used[a] {
		return
	}
	delete(p.used, a)
	p.free = append(p.free, a)
}

// Allocated reports whether a is currently allocated from the pool.
func (p *IPPool) Allocated(a netip.Addr) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used[a]
}

// InUse returns the number of currently allocated addresses.
func (p *IPPool) InUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.used)
}

// Contains reports whether a falls inside the pool's prefix.
func (p *IPPool) Contains(a netip.Addr) bool { return p.base.Contains(a) }

// Offset returns a's distance from the pool's network address: 1 for the
// first address Alloc hands out, and below 2^24 for every address inside
// the pool. It is meaningful only for addresses inside the pool's prefix.
func (p *IPPool) Offset(a netip.Addr) uint32 {
	x, base := a.As4(), p.base.Addr().As4()
	return binary.BigEndian.Uint32(x[:]) - binary.BigEndian.Uint32(base[:])
}
