package bgp

import (
	"fmt"
	"net/netip"
	"sync"

	"sdx/internal/netutil"
)

// Route is one path to a prefix as learned from a specific peer: the unit
// the decision process ranks and the route server hands to the SDX policy
// compiler. Attrs points at an interned attribute set (see Intern): routes
// sharing a combo share one canonical *PathAttrs, which is what keeps a
// full-table RIB at ~2 words of attribute state per route and makes
// same-attrs detection a pointer compare.
type Route struct {
	Prefix netip.Prefix
	Attrs  *PathAttrs
	// PeerAS and PeerID identify the session the route was learned on;
	// PeerID breaks final ties exactly as RFC 4271 §9.1.2.2(f) prescribes.
	// PeerAS is a 4-octet ASN (RFC 6793).
	PeerAS uint32
	PeerID netip.Addr
}

// zeroAttrs stands in for a nil Attrs pointer so zero-value Routes stay
// comparable without nil checks at every field access.
var zeroAttrs PathAttrs

// attrs returns the route's attribute set, treating nil as empty.
func (r Route) attrs() *PathAttrs {
	if r.Attrs == nil {
		return &zeroAttrs
	}
	return r.Attrs
}

// NextHop returns the route's NEXT_HOP attribute, nil-safe.
func (r Route) NextHop() netip.Addr { return r.attrs().NextHop }

func (r Route) String() string {
	a := r.attrs()
	return fmt.Sprintf("%v via %v as-path [%s] from AS%d", r.Prefix, a.NextHop,
		a.ASPathString(), r.PeerAS)
}

// Better reports whether r is preferred over o by the BGP decision process:
// highest LOCAL_PREF, shortest AS_PATH, lowest ORIGIN, lowest MED (between
// routes from the same neighbor AS), lowest peer BGP identifier, and — so
// the order stays strict and deterministic even when both PeerIDs are unset
// (routes the SDX originates on behalf of remote participants) — lowest
// peer AS, then lowest next hop. Both routes must be for the same prefix.
func (r Route) Better(o Route) bool {
	ra, oa := r.attrs(), o.attrs()
	lp := func(a *PathAttrs) uint32 {
		if a.HasLocalPref {
			return a.LocalPref
		}
		return 100 // RFC 4271 default
	}
	if a, b := lp(ra), lp(oa); a != b {
		return a > b
	}
	if a, b := ra.ASPathLength(), oa.ASPathLength(); a != b {
		return a < b
	}
	if ra.Origin != oa.Origin {
		return ra.Origin < oa.Origin
	}
	// MED is comparable only between routes learned from the same
	// neighboring AS (RFC 4271 §9.1.2.2(c)). FirstAS is 0 for paths with
	// no AS_SEQUENCE (empty or AS_SET-leading); such routes identify no
	// neighbor, so their MEDs must not be compared.
	if fa := ra.FirstAS(); fa != 0 && fa == oa.FirstAS() {
		med := func(a *PathAttrs) uint32 {
			if a.HasMED {
				return a.MED
			}
			return 0
		}
		if a, b := med(ra), med(oa); a != b {
			return a < b
		}
	}
	if r.PeerID != o.PeerID {
		return r.PeerID.Less(o.PeerID)
	}
	if r.PeerAS != o.PeerAS {
		return r.PeerAS < o.PeerAS
	}
	return ra.NextHop.Less(oa.NextHop)
}

// SelectBest returns the most preferred route of rs, or false when rs is
// empty. The scan is deterministic for equal inputs because Better is a
// strict total order once PeerIDs are distinct.
func SelectBest(rs []Route) (Route, bool) {
	if len(rs) == 0 {
		return Route{}, false
	}
	best := rs[0]
	for _, r := range rs[1:] {
		if r.Better(best) {
			best = r
		}
	}
	return best, true
}

// RIB stores the routes learned from one peer (an Adj-RIB-In) or destined
// to one peer (an Adj-RIB-Out): at most one route per prefix per RIB, since
// a BGP session implicitly replaces earlier advertisements. RIB is safe for
// concurrent use: session goroutines write while the controller reads.
//
// Routes are keyed by their prefix as one netutil.Prefix4 word. A RIB holds
// IPv4 routes only, as the UPDATE codec does: a non-IPv4 prefix is never
// stored and always absent.
type RIB struct {
	mu     sync.RWMutex
	routes map[netutil.Prefix4]Route
}

// NewRIB returns an empty RIB.
func NewRIB() *RIB {
	return &RIB{routes: make(map[netutil.Prefix4]Route)}
}

// Set installs or replaces the route for its prefix and reports whether the
// entry changed; a non-IPv4 route is not stored and reports false. With
// interned attributes the unchanged-re-advertisement case (the bulk of BGP
// refresh traffic) is detected by pointer compare.
func (t *RIB) Set(r Route) bool {
	k, ok := netutil.AsPrefix4(r.Prefix)
	if !ok {
		return false
	}
	r.Prefix = k.Prefix()
	t.mu.Lock()
	defer t.mu.Unlock()
	old, had := t.routes[k]
	if had && routesEqual(old, r) {
		return false
	}
	t.routes[k] = r
	return true
}

// Remove deletes the route for prefix, reporting whether one was present.
func (t *RIB) Remove(p netip.Prefix) bool {
	k, ok := netutil.AsPrefix4(p)
	if !ok {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.routes[k]; !ok {
		return false
	}
	delete(t.routes, k)
	return true
}

// Get returns the route for prefix.
func (t *RIB) Get(p netip.Prefix) (Route, bool) {
	k, ok := netutil.AsPrefix4(p)
	if !ok {
		return Route{}, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.routes[k]
	return r, ok
}

// Len returns the number of prefixes in the RIB.
func (t *RIB) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.routes)
}

// Prefixes returns all prefixes in the RIB, in no particular order.
func (t *RIB) Prefixes() []netip.Prefix {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]netip.Prefix, 0, len(t.routes))
	for _, r := range t.routes {
		out = append(out, r.Prefix)
	}
	return out
}

// Walk visits every route. Returning false stops early.
func (t *RIB) Walk(fn func(Route) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.routes {
		if !fn(r) {
			return
		}
	}
}

// Equal reports whether two attribute sets are semantically identical —
// the comparison the RIB uses to suppress no-op updates.
func (a PathAttrs) Equal(b PathAttrs) bool { return attrsEqual(a, b) }

// AttrsEqual compares two attribute pointers: identical pointers (the
// interned fast path) short-circuit, nil is treated as empty, and distinct
// pointers fall back to the structural compare so routes built outside the
// interning table still compare correctly.
func AttrsEqual(a, b *PathAttrs) bool {
	if a == b {
		return true
	}
	if a == nil {
		a = &zeroAttrs
	}
	if b == nil {
		b = &zeroAttrs
	}
	return attrsEqual(*a, *b)
}

func routesEqual(a, b Route) bool {
	if a.Prefix != b.Prefix || a.PeerAS != b.PeerAS || a.PeerID != b.PeerID {
		return false
	}
	return AttrsEqual(a.Attrs, b.Attrs)
}

func attrsEqual(a, b PathAttrs) bool {
	if a.Origin != b.Origin || a.NextHop != b.NextHop ||
		a.HasMED != b.HasMED || a.MED != b.MED ||
		a.HasLocalPref != b.HasLocalPref || a.LocalPref != b.LocalPref {
		return false
	}
	if len(a.ASPath) != len(b.ASPath) || len(a.Communities) != len(b.Communities) {
		return false
	}
	for i, seg := range a.ASPath {
		if seg.Type != b.ASPath[i].Type || len(seg.ASNs) != len(b.ASPath[i].ASNs) {
			return false
		}
		for j, as := range seg.ASNs {
			if as != b.ASPath[i].ASNs[j] {
				return false
			}
		}
	}
	for i, c := range a.Communities {
		if c != b.Communities[i] {
			return false
		}
	}
	return true
}
