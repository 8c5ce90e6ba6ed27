package netutil

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
)

// Trie is a binary (Patricia-lite) trie over IPv4 prefixes supporting
// longest-prefix-match lookup. The value type is generic; the zero Trie is
// ready to use. Trie is not safe for concurrent mutation; the SDX controller
// guards each RIB with its own lock.
type Trie[V any] struct {
	root *trieNode[V]
	size int
}

type trieNode[V any] struct {
	child [2]*trieNode[V]
	val   V
	set   bool
}

// v4bit extracts bit i (0 = most significant) of a 4-byte address. Callers
// hoist the As4 conversion out of their walk loops rather than re-deriving
// it per bit.
func v4bit(b [4]byte, i int) int {
	return int(b[i/8]>>(7-i%8)) & 1
}

// v4Prefix canonicalizes a prefix to native IPv4 form, unmapping
// IPv4-mapped IPv6 (::ffff:a.b.c.d/n, with the prefix length shifted down
// by the 96-bit mapping offset) so both spellings address the same entry.
func v4Prefix(p netip.Prefix) (netip.Prefix, bool) {
	if a := p.Addr(); a.Is4In6() {
		bits := p.Bits() - 96
		if bits < 0 {
			return netip.Prefix{}, false
		}
		p = netip.PrefixFrom(a.Unmap(), bits)
	}
	return p, p.Addr().Is4()
}

// Insert associates val with prefix, replacing any existing value. It
// reports whether the prefix was newly inserted (false means replaced).
// Only IPv4 prefixes are supported — IPv4-mapped IPv6 spellings are
// unmapped on entry; anything else panics, since the SDX data plane is an
// IPv4 fabric.
func (t *Trie[V]) Insert(p netip.Prefix, val V) bool {
	p, ok := v4Prefix(p)
	if !ok {
		panic(fmt.Sprintf("netutil: Trie supports IPv4 only, got %v", p))
	}
	p = p.Masked()
	if t.root == nil {
		t.root = &trieNode[V]{}
	}
	n := t.root
	addr := p.Addr().As4()
	for i := 0; i < p.Bits(); i++ {
		b := v4bit(addr, i)
		if n.child[b] == nil {
			n.child[b] = &trieNode[V]{}
		}
		n = n.child[b]
	}
	fresh := !n.set
	n.val, n.set = val, true
	if fresh {
		t.size++
	}
	return fresh
}

// Get returns the value stored at exactly prefix.
func (t *Trie[V]) Get(p netip.Prefix) (V, bool) {
	var zero V
	n := t.node(p)
	if n == nil || !n.set {
		return zero, false
	}
	return n.val, true
}

func (t *Trie[V]) node(p netip.Prefix) *trieNode[V] {
	p, ok := v4Prefix(p)
	if t.root == nil || !ok {
		return nil
	}
	p = p.Masked()
	n := t.root
	addr := p.Addr().As4()
	for i := 0; i < p.Bits(); i++ {
		n = n.child[v4bit(addr, i)]
		if n == nil {
			return nil
		}
	}
	return n
}

// Delete removes the value stored at exactly prefix, reporting whether a
// value was present. Interior nodes are left in place; the SDX workloads
// churn values far more often than topology, so we trade a little memory
// for simpler invariants.
func (t *Trie[V]) Delete(p netip.Prefix) bool {
	n := t.node(p)
	if n == nil || !n.set {
		return false
	}
	var zero V
	n.val, n.set = zero, false
	t.size--
	return true
}

// Lookup returns the value of the longest prefix containing addr.
func (t *Trie[V]) Lookup(addr netip.Addr) (netip.Prefix, V, bool) {
	var (
		zero  V
		bestV V
		best  netip.Prefix
		found bool
	)
	addr = addr.Unmap()
	if t.root == nil || !addr.Is4() {
		return netip.Prefix{}, zero, false
	}
	n := t.root
	a4 := addr.As4()
	for i := 0; ; i++ {
		if n.set {
			best = netip.PrefixFrom(addr, i).Masked()
			bestV = n.val
			found = true
		}
		if i == 32 {
			break
		}
		n = n.child[v4bit(a4, i)]
		if n == nil {
			break
		}
	}
	if !found {
		return netip.Prefix{}, zero, false
	}
	return best, bestV, true
}

// Len returns the number of stored prefixes.
func (t *Trie[V]) Len() int { return t.size }

// Walk visits every stored (prefix, value) pair in lexicographic prefix
// order. Returning false from fn stops the walk early.
func (t *Trie[V]) Walk(fn func(p netip.Prefix, v V) bool) {
	if t.root == nil {
		return
	}
	var rec func(n *trieNode[V], addr [4]byte, depth int) bool
	rec = func(n *trieNode[V], addr [4]byte, depth int) bool {
		if n.set {
			p := netip.PrefixFrom(netip.AddrFrom4(addr), depth)
			if !fn(p, n.val) {
				return false
			}
		}
		if depth == 32 {
			return true
		}
		if c := n.child[0]; c != nil {
			if !rec(c, addr, depth+1) {
				return false
			}
		}
		if c := n.child[1]; c != nil {
			addr[depth/8] |= 1 << (7 - depth%8)
			if !rec(c, addr, depth+1) {
				return false
			}
		}
		return true
	}
	rec(t.root, [4]byte{}, 0)
}

// Prefixes returns all stored prefixes in lexicographic order.
func (t *Trie[V]) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, t.size)
	t.Walk(func(p netip.Prefix, _ V) bool {
		out = append(out, p)
		return true
	})
	return out
}

// SortPrefixes orders prefixes by address then by length, the canonical
// order used throughout the controller so that FEC membership vectors are
// deterministic run to run.
func SortPrefixes(ps []netip.Prefix) {
	slices.SortFunc(ps, ComparePrefixes)
}

// ComparePrefixes is the canonical prefix order as a three-way comparison:
// by address, then by length.
func ComparePrefixes(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return cmp.Compare(a.Bits(), b.Bits())
}
