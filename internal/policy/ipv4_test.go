package policy

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"unsafe"

	"sdx/internal/netutil"
)

// The netip reference the IPv4 fields of Match and Mods are checked
// against: what the compiler computed when it kept netip values.

func refContains(p netip.Prefix, a netip.Addr) bool { return a.IsValid() && p.Masked().Contains(a) }

func refCovers(p, q netip.Prefix) bool { return p.Bits() <= q.Bits() && p.Contains(q.Addr()) }

// refIntersect is the narrower of p and q, or false when they are
// disjoint.
func refIntersect(p, q netip.Prefix) (netip.Prefix, bool) {
	switch {
	case refCovers(p, q):
		return q.Masked(), true
	case refCovers(q, p):
		return p.Masked(), true
	}
	return netip.Prefix{}, false
}

// ipCase is a match's IP constraints kept beside it in netip form; an
// invalid prefix is a wildcard.
type ipCase struct {
	m        Match
	src, dst netip.Prefix
}

func randAddr4(rng *rand.Rand) netip.Addr {
	bases := []uint32{0, 0x0a000000, 0x0a010203, 0x80000000, 0xffffffff, rng.Uint32()}
	v := bases[rng.Intn(len(bases))] ^ rng.Uint32()>>uint(rng.Intn(33))
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// randIPCase constrains each IP field half the time, to a prefix of an
// edge length (/0, /1, /31, /32) or a random one, host bits usually set.
func randIPCase(rng *rand.Rand) ipCase {
	c := ipCase{m: MatchAll.Port(uint16(rng.Intn(2)))}
	draw := func() netip.Prefix {
		return netip.PrefixFrom(randAddr4(rng), []int{0, 1, 31, 32, rng.Intn(33)}[rng.Intn(5)])
	}
	if rng.Intn(2) == 0 {
		c.src = draw()
		c.m = c.m.SrcIP(c.src)
	}
	if rng.Intn(2) == 0 {
		c.dst = draw()
		c.m = c.m.DstIP(c.dst)
	}
	return c
}

// ipOf reads an IP constraint back in netip form, invalid when unset.
func ipOf(p netutil.Prefix4, ok bool) netip.Prefix {
	if !ok {
		return netip.Prefix{}
	}
	return p.Prefix()
}

// TestMatchIPv4MatchesNetipReference checks Covers, Intersect and Subsumes
// on random IP constraints, and Apply and Then on random IP rewrites,
// against the netip reference.
func TestMatchIPv4MatchesNetipReference(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for i := 0; i < 20000; i++ {
		a, b := randIPCase(rng), randIPCase(rng)
		if ipOf(a.m.GetSrcIP()) != a.src.Masked() || ipOf(a.m.GetDstIP()) != a.dst.Masked() {
			t.Fatalf("%v does not hold src %v dst %v", a.m, a.src, a.dst)
		}

		pkt := Packet{Port: uint16(rng.Intn(2)), SrcIP: randAddr4(rng), DstIP: randAddr4(rng)}
		switch rng.Intn(8) {
		case 0:
			pkt.SrcIP = netip.Addr{}
		case 1:
			pkt.DstIP = netip.AddrFrom16(pkt.DstIP.As16()) // IPv4-mapped IPv6
		}
		want := a.m.has(FPort) && a.m.port == pkt.Port &&
			(!a.src.IsValid() || refContains(a.src, pkt.SrcIP)) &&
			(!a.dst.IsValid() || refContains(a.dst, pkt.DstIP))
		if got := a.m.Covers(pkt); got != want {
			t.Fatalf("%v covers %v = %v, want %v", a.m, pkt, got, want)
		}

		wantM, wantOK := MatchAll.Port(a.m.port), a.m.port == b.m.port
		for _, f := range []struct {
			x, y netip.Prefix
			set  func(Match, netip.Prefix) Match
		}{{a.src, b.src, Match.SrcIP}, {a.dst, b.dst, Match.DstIP}} {
			switch {
			case !f.x.IsValid() && !f.y.IsValid():
			case !f.x.IsValid():
				wantM = f.set(wantM, f.y)
			case !f.y.IsValid():
				wantM = f.set(wantM, f.x)
			default:
				p, ok := refIntersect(f.x, f.y)
				wantOK = wantOK && ok
				if ok {
					wantM = f.set(wantM, p)
				}
			}
		}
		if got, ok := a.m.Intersect(b.m); ok != wantOK || ok && got != wantM {
			t.Fatalf("%v ∩ %v = %v, %v; want %v, %v", a.m, b.m, got, ok, wantM, wantOK)
		}

		wantSub := a.m.port == b.m.port &&
			(!a.src.IsValid() || b.src.IsValid() && refCovers(a.src, b.src)) &&
			(!a.dst.IsValid() || b.dst.IsValid() && refCovers(a.dst, b.dst))
		if got := a.m.Subsumes(b.m); got != wantSub {
			t.Fatalf("%v subsumes %v = %v, want %v", a.m, b.m, got, wantSub)
		}

		s1, d1, d2 := randAddr4(rng), randAddr4(rng), randAddr4(rng)
		first := Identity.SetSrcIP(s1).SetDstIP(d1)
		second := Identity.SetDstIP(d2)
		out := first.Then(second).Apply(pkt)
		if out.SrcIP != s1 || out.DstIP != d2 || out != second.Apply(first.Apply(pkt)) {
			t.Fatalf("%v then %v on %v = %v", first, second, pkt, out)
		}
	}
}

// TestIPConstructorsRejectIPv6: every constructor that takes a netip value
// panics on one that OF 1.0's 32-bit address fields cannot carry, so no
// IPv6 prefix or address reaches a compiled rule.
func TestIPConstructorsRejectIPv6(t *testing.T) {
	v6 := netip.MustParsePrefix("2001:db8::/64")
	for name, build := range map[string]func(){
		"dst /64":     func() { MatchAll.DstIP(v6) },
		"src /32":     func() { MatchAll.SrcIP(netip.MustParsePrefix("2001:db8::/32")) },
		"mapped dst":  func() { MatchAll.DstIP(netip.MustParsePrefix("::ffff:10.0.0.0/104")) },
		"set dst":     func() { Identity.SetDstIP(netip.MustParseAddr("2001:db8::1")) },
		"set src":     func() { Identity.SetSrcIP(netip.MustParseAddr("::ffff:10.0.0.1")) },
		"invalid src": func() { Identity.SetSrcIP(netip.Addr{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: built without a panic", name)
				}
			}()
			build()
		}()
	}
}

// TestMatchModsLayout pins the compact, pointer-free representation: a
// Rule is one cache line plus its action list, and the garbage collector
// never scans a Match or a Mods.
func TestMatchModsLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"Match", unsafe.Sizeof(Match{}), 40},
		{"Mods", unsafe.Sizeof(Mods{}), 40},
		{"Rule", unsafe.Sizeof(Rule{}), 64},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want at most %d", c.name, c.size, c.max)
		}
	}
	for _, v := range []any{Match{}, Mods{}} {
		if path := pointerPath(reflect.TypeOf(v)); path != "" {
			t.Errorf("%T holds a pointer at %s", v, path)
		}
	}
}

// pointerPath names the first field of t that is or holds a pointer, or
// returns "" when t is pointer-free.
func pointerPath(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerPath(t.Field(i).Type); p != "" {
				return t.Field(i).Name + "." + p
			}
		}
		return ""
	case reflect.Array:
		return pointerPath(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	}
	return t.String()
}
