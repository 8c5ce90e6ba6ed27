package bgp

import (
	"net/netip"
	"testing"
)

func route(prefix string, opts ...func(*Route)) Route {
	// Build against a private attribute copy — interned sets are shared and
	// immutable, so the options must not write through an interned pointer.
	r := Route{
		Prefix: mp(prefix),
		Attrs: &PathAttrs{
			NextHop: ma("192.0.2.1"),
			ASPath:  []ASPathSegment{{Type: ASSequence, ASNs: []uint32{65001}}},
		},
		PeerAS: 65001,
		PeerID: ma("10.0.0.1"),
	}
	for _, o := range opts {
		o(&r)
	}
	r.Attrs = Intern(*r.Attrs)
	return r
}

func withASPath(asns ...uint32) func(*Route) {
	return func(r *Route) {
		r.Attrs.ASPath = []ASPathSegment{{Type: ASSequence, ASNs: asns}}
		if len(asns) > 0 {
			r.PeerAS = asns[0]
		}
	}
}

func withLocalPref(lp uint32) func(*Route) {
	return func(r *Route) { r.Attrs.LocalPref, r.Attrs.HasLocalPref = lp, true }
}

func withMED(med uint32) func(*Route) {
	return func(r *Route) { r.Attrs.MED, r.Attrs.HasMED = med, true }
}

func withPeerID(id string) func(*Route) {
	return func(r *Route) { r.PeerID = ma(id) }
}

func withOrigin(o uint8) func(*Route) {
	return func(r *Route) { r.Attrs.Origin = o }
}

func TestDecisionLocalPrefWins(t *testing.T) {
	hi := route("10.0.0.0/8", withLocalPref(200), withASPath(1, 2, 3))
	lo := route("10.0.0.0/8", withLocalPref(100), withASPath(1))
	if !hi.Better(lo) || lo.Better(hi) {
		t.Error("higher LOCAL_PREF must win despite longer AS path")
	}
	// Default LOCAL_PREF is 100.
	def := route("10.0.0.0/8", withASPath(1))
	if !hi.Better(def) || def.Better(hi) {
		t.Error("explicit 200 must beat default 100")
	}
}

func TestDecisionASPathLength(t *testing.T) {
	short := route("10.0.0.0/8", withASPath(1))
	long := route("10.0.0.0/8", withASPath(2, 3))
	if !short.Better(long) || long.Better(short) {
		t.Error("shorter AS path must win")
	}
}

func TestDecisionOrigin(t *testing.T) {
	igp := route("10.0.0.0/8", withOrigin(OriginIGP), withPeerID("10.0.0.9"))
	egp := route("10.0.0.0/8", withOrigin(OriginEGP))
	inc := route("10.0.0.0/8", withOrigin(OriginIncomplete))
	if !igp.Better(egp) || !egp.Better(inc) || !igp.Better(inc) {
		t.Error("origin preference must be IGP < EGP < INCOMPLETE")
	}
}

func TestDecisionMEDSameNeighborOnly(t *testing.T) {
	lowMED := route("10.0.0.0/8", withASPath(7), withMED(10), withPeerID("10.0.0.2"))
	highMED := route("10.0.0.0/8", withASPath(7), withMED(99), withPeerID("10.0.0.1"))
	if !lowMED.Better(highMED) {
		t.Error("lower MED from the same neighbor AS must win")
	}
	// Different neighbor AS: MED not compared; falls to router ID.
	otherAS := route("10.0.0.0/8", withASPath(8), withMED(1), withPeerID("10.0.0.9"))
	samePathLen := route("10.0.0.0/8", withASPath(7), withMED(99), withPeerID("10.0.0.1"))
	if otherAS.Better(samePathLen) {
		t.Error("MED must not be compared across different neighbor ASes; lower peer ID wins")
	}
}

func TestDecisionPeerIDTiebreak(t *testing.T) {
	a := route("10.0.0.0/8", withPeerID("10.0.0.1"))
	b := route("10.0.0.0/8", withPeerID("10.0.0.2"))
	if !a.Better(b) || b.Better(a) {
		t.Error("lower peer BGP identifier must break the final tie")
	}
}

func TestSelectBest(t *testing.T) {
	if _, ok := SelectBest(nil); ok {
		t.Error("empty input should report no best route")
	}
	rs := []Route{
		route("10.0.0.0/8", withASPath(1, 2), withPeerID("10.0.0.3")),
		route("10.0.0.0/8", withLocalPref(300), withASPath(1, 2, 3, 4), withPeerID("10.0.0.4")),
		route("10.0.0.0/8", withASPath(9), withPeerID("10.0.0.1")),
	}
	best, ok := SelectBest(rs)
	if !ok || best.PeerID != ma("10.0.0.4") {
		t.Errorf("SelectBest = %v, want the LOCAL_PREF 300 route", best)
	}
}

func TestRIBSetGetRemove(t *testing.T) {
	rib := NewRIB()
	r := route("10.0.0.0/8")
	if !rib.Set(r) {
		t.Error("first Set should report change")
	}
	if rib.Set(r) {
		t.Error("identical Set should report no change")
	}
	r2 := r
	r2.Attrs = Intern(r.Attrs.WithNextHop(ma("9.9.9.9")))
	if !rib.Set(r2) {
		t.Error("Set with new attrs should report change")
	}
	got, ok := rib.Get(mp("10.0.0.0/8"))
	if !ok || got.Attrs.NextHop != ma("9.9.9.9") {
		t.Errorf("Get = %v, %v", got, ok)
	}
	if !rib.Remove(mp("10.0.0.0/8")) || rib.Remove(mp("10.0.0.0/8")) {
		t.Error("Remove semantics wrong")
	}
	if rib.Len() != 0 {
		t.Errorf("Len = %d", rib.Len())
	}
}

// TestRIBRefusesNonIPv4 checks that a RIB keys IPv4 only: a non-IPv4
// route is not stored, and a non-IPv4 prefix is absent, host bits of an
// IPv4 one are ignored.
func TestRIBRefusesNonIPv4(t *testing.T) {
	rib := NewRIB()
	rib.Set(route("10.0.0.0/8"))
	for _, s := range []string{"2001:db8::/32", "::ffff:10.0.0.0/104", "::/0"} {
		r := route("10.0.0.0/8")
		r.Prefix = mp(s)
		if rib.Set(r) {
			t.Errorf("Set(%s) reported a change", s)
		}
		if _, ok := rib.Get(mp(s)); ok {
			t.Errorf("Get(%s) found a route", s)
		}
		if rib.Remove(mp(s)) {
			t.Errorf("Remove(%s) removed a route", s)
		}
	}
	if rib.Set(Route{}) || rib.Remove(netip.Prefix{}) {
		t.Error("the invalid prefix was keyed")
	}
	if got, ok := rib.Get(mp("10.1.2.3/8")); !ok || got.Prefix != mp("10.0.0.0/8") || rib.Len() != 1 {
		t.Errorf("Get(10.1.2.3/8) = %v, %v with %d routes, want the one 10.0.0.0/8 route", got, ok, rib.Len())
	}
}

func TestRIBWalkEarlyStop(t *testing.T) {
	rib := NewRIB()
	rib.Set(route("10.0.0.0/8"))
	rib.Set(route("20.0.0.0/8"))
	n := 0
	rib.Walk(func(Route) bool { n++; return false })
	if n != 1 {
		t.Errorf("Walk visited %d after early stop", n)
	}
}

func TestRouteString(t *testing.T) {
	r := route("10.0.0.0/8", withASPath(65001, 65002))
	want := "10.0.0.0/8 via 192.0.2.1 as-path [65001 65002] from AS65001"
	if got := r.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
