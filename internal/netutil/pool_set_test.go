package netutil

import (
	"net/netip"
	"testing"
)

func TestIPPoolAllocSequential(t *testing.T) {
	p := MustNewIPPool("172.16.0.0/30")
	a1, err := p.Alloc()
	if err != nil || a1.String() != "172.16.0.1" {
		t.Fatalf("first alloc = %v, %v", a1, err)
	}
	a2, _ := p.Alloc()
	a3, _ := p.Alloc()
	if a2.String() != "172.16.0.2" || a3.String() != "172.16.0.3" {
		t.Errorf("allocs = %v %v", a2, a3)
	}
	if _, err := p.Alloc(); err == nil {
		t.Error("pool should be exhausted after 3 allocations from /30")
	}
	if p.InUse() != 3 {
		t.Errorf("InUse = %d, want 3", p.InUse())
	}
}

func TestIPPoolReleaseReuse(t *testing.T) {
	p := MustNewIPPool("172.16.0.0/30")
	a1, _ := p.Alloc()
	p.Alloc()
	p.Release(a1)
	got, err := p.Alloc()
	if err != nil || got != a1 {
		t.Errorf("released address not reused: got %v, %v", got, err)
	}
	// Releasing an unallocated address is a no-op.
	p.Release(netip.MustParseAddr("10.9.9.9"))
}

func TestIPPoolOffset(t *testing.T) {
	p := MustNewIPPool("10.0.0.0/8")
	for _, c := range []struct {
		addr string
		want uint32
	}{
		{"10.0.0.1", 1},
		{"10.0.1.0", 256},
		{"10.255.255.255", 1<<24 - 1},
	} {
		if got := p.Offset(netip.MustParseAddr(c.addr)); got != c.want {
			t.Errorf("Offset(%s) = %d, want %d", c.addr, got, c.want)
		}
	}
	a, _ := p.Alloc()
	if p.Offset(a) != 1 {
		t.Errorf("first allocation %v has offset %d, want 1", a, p.Offset(a))
	}
}

func TestIPPoolAllocated(t *testing.T) {
	p := MustNewIPPool("172.16.0.0/29")
	a, _ := p.Alloc()
	if !p.Allocated(a) {
		t.Errorf("%v not reported allocated after Alloc", a)
	}
	if p.Allocated(a.Next()) {
		t.Errorf("%v reported allocated before Alloc", a.Next())
	}
	p.Release(a)
	if p.Allocated(a) {
		t.Errorf("%v still reported allocated after Release", a)
	}
}

func TestIPPoolRejectsShortPrefix(t *testing.T) {
	if _, err := NewIPPool(netip.MustParsePrefix("10.0.0.0/7")); err == nil {
		t.Error("NewIPPool should reject a /7: its offsets overflow the 24-bit VMAC tag")
	}
	if _, err := NewIPPool(netip.MustParsePrefix("10.0.0.0/8")); err != nil {
		t.Errorf("NewIPPool rejected a /8: %v", err)
	}
}

func TestIPPoolDoubleRelease(t *testing.T) {
	p := MustNewIPPool("172.16.0.0/29")
	a, _ := p.Alloc()
	p.Release(a)
	p.Release(a) // double release must not duplicate the free entry
	b, _ := p.Alloc()
	c, _ := p.Alloc()
	if b == c {
		t.Errorf("double release caused duplicate allocation of %v", b)
	}
}

func TestIPPoolRejectsIPv6(t *testing.T) {
	if _, err := NewIPPool(netip.MustParsePrefix("2001:db8::/64")); err == nil {
		t.Error("NewIPPool should reject IPv6")
	}
}

func TestPrefixSetBasics(t *testing.T) {
	s := NewPrefixSet(mp("10.0.0.0/8"), mp("10.0.0.0/8"), mp("192.168.0.0/16"))
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2 (duplicates collapse)", s.Len())
	}
	if !s.Contains(mp("10.0.0.0/8")) || s.Contains(mp("10.0.0.0/9")) {
		t.Error("Contains must be exact-match, not containment")
	}
	s.Remove(mp("10.0.0.0/8"))
	if s.Contains(mp("10.0.0.0/8")) {
		t.Error("Remove failed")
	}
}

func TestPrefixSetMasksInputs(t *testing.T) {
	s := NewPrefixSet(netip.MustParsePrefix("10.1.2.3/8"))
	if !s.Contains(mp("10.0.0.0/8")) {
		t.Error("unmasked input should canonicalize to masked form")
	}
}

func TestPrefixSetOps(t *testing.T) {
	a := NewPrefixSet(mp("10.0.0.0/8"), mp("20.0.0.0/8"))
	b := NewPrefixSet(mp("20.0.0.0/8"), mp("30.0.0.0/8"))
	inter := a.Intersect(b)
	if inter.Len() != 1 || !inter.Contains(mp("20.0.0.0/8")) {
		t.Errorf("Intersect = %v", inter)
	}
	uni := a.Union(b)
	if uni.Len() != 3 {
		t.Errorf("Union len = %d, want 3", uni.Len())
	}
}

func TestPrefixSetNilSafety(t *testing.T) {
	var s *PrefixSet
	if s.Contains(mp("10.0.0.0/8")) || s.Len() != 0 || s.Prefixes() != nil {
		t.Error("nil PrefixSet should behave as empty")
	}
	if got := s.Intersect(NewPrefixSet(mp("10.0.0.0/8"))); got.Len() != 0 {
		t.Error("nil Intersect should be empty")
	}
	if got := s.Union(NewPrefixSet(mp("10.0.0.0/8"))); got.Len() != 1 {
		t.Error("nil Union should equal the other set")
	}
}

func TestPrefixSetString(t *testing.T) {
	s := NewPrefixSet(mp("192.168.0.0/16"), mp("10.0.0.0/8"))
	if got := s.String(); got != "{10.0.0.0/8, 192.168.0.0/16}" {
		t.Errorf("String = %q", got)
	}
}
