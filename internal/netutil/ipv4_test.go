package netutil

import (
	"cmp"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
)

// randPrefix4 draws an IPv4 prefix whose length is often at an edge (/0,
// /1, /31, /32) and whose address usually keeps host bits set, from a small
// pool of bases so that draws nest and overlap often.
func randPrefix4(rng *rand.Rand) netip.Prefix {
	bases := []uint32{0, 0x0a000000, 0x0a010203, 0x80000000, 0xffffffff, rng.Uint32()}
	a := bases[rng.Intn(len(bases))] ^ rng.Uint32()>>uint(rng.Intn(33))
	bits := []int{0, 1, 31, 32, rng.Intn(33)}[rng.Intn(5)]
	return netip.PrefixFrom(Addr4(a).Addr(), bits)
}

// TestPrefix4MatchesNetip checks Prefix4's masking, Contains, Covers and
// numeric order against netip.Prefix on random prefixes and addresses.
func TestPrefix4MatchesNetip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		p, q := randPrefix4(rng), randPrefix4(rng)
		a := randPrefix4(rng).Addr()
		p4, q4, a4 := Prefix4From(p), Prefix4From(q), Addr4From(a)
		if a4.Addr() != a || a4.String() != a.String() {
			t.Fatalf("Addr4 %v reads back as %v", a, a4)
		}
		if p4.Prefix() != p.Masked() || p4.String() != p.Masked().String() || p4 != PrefixFrom4(p4.Addr(), p4.Bits()) {
			t.Fatalf("Prefix4From(%v) = %v, want %v", p, p4, p.Masked())
		}
		if got, want := p4.Contains(a4), p.Contains(a); got != want {
			t.Fatalf("%v contains %v = %v, want %v", p, a, got, want)
		}
		if got, want := p4.Covers(q4), p.Bits() <= q.Bits() && p.Contains(q.Addr()); got != want {
			t.Fatalf("%v covers %v = %v, want %v", p, q, got, want)
		}
		if (p4 == q4) != (p.Masked() == q.Masked()) {
			t.Fatalf("%v == %v disagrees with netip", p, q)
		}
		if got, want := cmp.Compare(p4, q4), ComparePrefixes(p.Masked(), q.Masked()); got != want {
			t.Fatalf("numeric order of %v, %v is %d, ComparePrefixes says %d", p, q, got, want)
		}
		if k, ok := AsPrefix4(p); !ok || k != p4 {
			t.Fatalf("AsPrefix4(%v) = %v, %v, want %v", p, k, ok, p4)
		}
	}
}

// TestPrefix4Word pins the one-word representation: a uint64 (so a map keyed
// by it takes the runtime's 64-bit fast path) with the masked address above
// the length, which round-trips through netip.Prefix at the edge lengths.
// TestPrefix4MatchesNetip checks that its numeric order is ComparePrefixes'.
func TestPrefix4Word(t *testing.T) {
	if k := reflect.TypeOf(Prefix4(0)).Kind(); k != reflect.Uint64 {
		t.Fatalf("Prefix4 is a %v, want uint64", k)
	}
	for _, c := range []struct {
		in   string
		word Prefix4
		out  string
	}{
		{"255.255.255.255/0", 0x00000000_00000000, "0.0.0.0/0"},
		{"255.255.255.255/1", 0x80000000_00000001, "128.0.0.0/1"},
		{"10.1.2.3/8", 0x0a000000_00000008, "10.0.0.0/8"},
		{"10.1.2.3/31", 0x0a010202_0000001f, "10.1.2.2/31"},
		{"10.1.2.3/32", 0x0a010203_00000020, "10.1.2.3/32"},
		{"255.255.255.255/32", 0xffffffff_00000020, "255.255.255.255/32"},
	} {
		p4 := Prefix4From(netip.MustParsePrefix(c.in))
		if p4 != c.word {
			t.Errorf("Prefix4From(%s) = %#x, want %#x", c.in, uint64(p4), uint64(c.word))
		}
		if got := p4.Prefix(); got != netip.MustParsePrefix(c.out) {
			t.Errorf("%s round-trips to %v, want %s", c.in, got, c.out)
		}
		if Prefix4From(p4.Prefix()) != p4 {
			t.Errorf("%s does not survive a second round trip", c.in)
		}
	}
}

func TestIPv4ConversionsRejectOthers(t *testing.T) {
	for _, s := range []string{"2001:db8::1", "::ffff:10.0.0.1", "::"} {
		mustPanic(t, s, func() { Addr4From(netip.MustParseAddr(s)) })
	}
	for _, p := range []netip.Prefix{netip.MustParsePrefix("2001:db8::/32"), netip.MustParsePrefix("::ffff:10.0.0.0/104"), {}} {
		mustPanic(t, p.String(), func() { Prefix4From(p) })
		if k, ok := AsPrefix4(p); ok {
			t.Errorf("AsPrefix4(%v) = %v, want not ok", p, k)
		}
	}
	if k, ok := AsPrefix4(netip.PrefixFrom(netip.MustParseAddr("10.0.0.0"), 33)); ok {
		t.Errorf("AsPrefix4 of an IPv4 /33 = %v, want not ok", k)
	}
	mustPanic(t, "/33", func() { PrefixFrom4(0, 33) })
	mustPanic(t, "/-1", func() { PrefixFrom4(0, -1) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
}
