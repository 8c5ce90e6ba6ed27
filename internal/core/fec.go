package core

import (
	"fmt"
	"net/netip"
	"sync"

	"sdx/internal/netutil"
	"sdx/internal/policy"
)

// FEC is a forwarding equivalence class (§4.2): a maximal set of prefixes
// that share forwarding behaviour throughout the fabric, tagged in the data
// plane by a virtual MAC and signalled in the control plane by a virtual
// next-hop IP address.
type FEC struct {
	VNH      netip.Addr
	VMAC     netutil.MAC // derived from VNH by vmacOf
	Prefixes []netip.Prefix
	// VRF is the isolation domain the class belongs to: with multi-tenant
	// VRFs active the same bare prefix may be classed independently in
	// several domains, each with its own tag and next hops. VNHs and VMACs
	// still come from one global pool, so the ARP responder and the data
	// plane need no VRF awareness.
	VRF VRF
	// First and Second are the advertisers of the globally best and
	// second-best routes; participant X's default next hop for the class is
	// First unless X == First, in which case Second.
	First  ID
	Second ID
}

// vrfPrefix qualifies a prefix by its isolation domain — the key space the
// class assignment and the MDS universe live in once tenancy is active.
type vrfPrefix struct {
	vrf    VRF
	prefix netip.Prefix
}

// DefaultNextHop returns the participant that receiver's default (BGP-
// selected) route for this class points at, or false when there is none
// (e.g. the only advertiser is the receiver itself).
func (f *FEC) DefaultNextHop(receiver ID) (ID, bool) {
	if f.First != "" && f.First != receiver {
		return f.First, true
	}
	if f.Second != "" && f.Second != receiver {
		return f.Second, true
	}
	return "", false
}

// FECTable is the controller's current class assignment, replaced wholesale
// by the background pass and appended to by the fast path.
type FECTable struct {
	mu       sync.RWMutex
	byPrefix map[vrfPrefix]*FEC
	list     []*FEC
}

func newFECTable() *FECTable {
	return &FECTable{byPrefix: make(map[vrfPrefix]*FEC)}
}

// ByPrefix returns the default-domain class containing prefix.
func (t *FECTable) ByPrefix(p netip.Prefix) (*FEC, bool) {
	return t.ByVRFPrefix("", p)
}

// ByVRFPrefix returns the class containing prefix within a tenant domain.
func (t *FECTable) ByVRFPrefix(vrf VRF, p netip.Prefix) (*FEC, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	f, ok := t.byPrefix[vrfPrefix{vrf: vrf, prefix: p.Masked()}]
	return f, ok
}

// All returns a snapshot of the classes.
func (t *FECTable) All() []FEC {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]FEC, len(t.list))
	for i, f := range t.list {
		out[i] = *f
	}
	return out
}

// Len returns the number of classes — the paper's "prefix groups" metric
// (Figure 6).
func (t *FECTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.list)
}

// replace installs a fresh class list (the background pass).
func (t *FECTable) replace(fecs []*FEC) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.list = fecs
	t.byPrefix = make(map[vrfPrefix]*FEC)
	for _, f := range fecs {
		for _, p := range f.Prefixes {
			t.byPrefix[vrfPrefix{vrf: f.VRF, prefix: p}] = f
		}
	}
}

// add appends one class, remapping its prefixes (the fast path's singleton
// classes land here).
func (t *FECTable) add(f *FEC) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.list = append(t.list, f)
	for _, p := range f.Prefixes {
		t.byPrefix[vrfPrefix{vrf: f.VRF, prefix: p}] = f
	}
}

// reachSet names one pass-1 grouping input: the prefixes that hop exported
// to the participant, relevant because the participant's outbound policy
// forwards some traffic to hop.
type reachSet struct {
	participant ID
	hop         ID
	set         *netutil.PrefixSet
}

// collectFwdTargets accumulates every location assigned by a SetPort mod
// anywhere in the policy tree.
func collectFwdTargets(pol policy.Policy, into map[uint16]bool) {
	switch v := pol.(type) {
	case *policy.Test, policy.Drop, policy.Pass, nil:
	case *policy.Mod:
		if port, ok := v.Mods.GetPort(); ok {
			into[port] = true
		}
	case *policy.Union:
		for _, ch := range v.Children {
			collectFwdTargets(ch, into)
		}
	case *policy.Seq:
		for _, ch := range v.Children {
			collectFwdTargets(ch, into)
		}
	case *policy.Multicast:
		for _, port := range v.Ports {
			into[port] = true
		}
	case *policy.If:
		collectFwdTargets(v.Then, into)
		collectFwdTargets(v.Else, into)
	case *policy.Fallback:
		collectFwdTargets(v.Primary, into)
		collectFwdTargets(v.Default, into)
	default:
		panic(fmt.Sprintf("core: unsupported policy node %T", pol))
	}
}

// computeFECs materializes the Minimum Disjoint Subset classes of §4.2
// from the (already refreshed) fecState grouping: each distinct signature
// — reach-set membership plus best/second-best advertisers — is one
// equivalence class. The pass stays sequential on purpose: VNH assignment
// must follow the sorted prefix order exactly for recompilations to be
// deterministic. Alongside the classes it returns the freshly allocated
// VNHs (those not carried over from the previous table) so an abandoned
// compilation can return them to the pool.
func (p *pipeline) computeFECs() ([]*FEC, []netip.Addr, error) {
	order, groups := p.mds.grouping()

	// Preserve tags across recompilations: a group whose membership and
	// default next hops are unchanged keeps its VNH and VMAC, so the route
	// server need not churn BGP advertisements (and routers need not re-ARP)
	// for prefixes the background pass did not actually move. Classes are
	// bucketed by a hashed identity and verified by exact prefix compare, so
	// a hash collision can at worst miss a reuse, never alias two classes.
	old := make(map[fecIdentKey][]*FEC)
	for _, f := range p.fecs.All() {
		fc := f
		k := fecIdentity(&fc)
		old[k] = append(old[k], &fc)
	}
	fecs := make([]*FEC, 0, len(order))
	var fresh []netip.Addr
	for _, sig := range order {
		candidate := &FEC{
			Prefixes: groups[sig],
			VRF:      sig.vrf,
			First:    sig.first,
			Second:   sig.second,
		}
		k := fecIdentity(candidate)
		reused := false
		bucket := old[k]
		for bi, prev := range bucket {
			if prefixesEqual(prev.Prefixes, candidate.Prefixes) {
				candidate.VNH, candidate.VMAC = prev.VNH, prev.VMAC
				old[k] = append(bucket[:bi], bucket[bi+1:]...) // consume: no double reuse
				reused = true
				break
			}
		}
		if !reused {
			vnh, err := p.pool.Alloc()
			if err != nil {
				return nil, fresh, fmt.Errorf("core: allocating VNH: %w", err)
			}
			fresh = append(fresh, vnh)
			candidate.VNH = vnh
			candidate.VMAC = vmacOf(p.pool, vnh)
		}
		fecs = append(fecs, candidate)
	}
	return fecs, fresh, nil
}

// vmacOf is the one place a class's tag is computed: §4.2's tag is one
// identity, advertised as the VNH and resolved by ARP to the VMAC, so the
// VMAC is the VNH's pool offset. A VNH keeps its VMAC however often it is
// retired and re-minted, and a router's cached ARP answer never goes stale.
func vmacOf(pool *netutil.IPPool, vnh netip.Addr) netutil.MAC {
	return netutil.VMAC(pool.Offset(vnh))
}

// fecIdentKey is the hashed identity of a class: the advertiser pair, the
// member count, and an FNV-1a digest of the member prefixes. Buckets, not
// proofs — matches are verified with prefixesEqual before reuse.
type fecIdentKey struct {
	first, second ID
	vrf           VRF
	n             int
	hash          uint64
}

// fecIdentity keys a class by its full behaviour: member prefixes plus the
// default next-hop pair.
func fecIdentity(f *FEC) fecIdentKey {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range f.Prefixes {
		a := p.Addr().As16()
		for _, b := range a {
			h = (h ^ uint64(b)) * prime64
		}
		h = (h ^ uint64(uint8(p.Bits()))) * prime64
	}
	return fecIdentKey{first: f.First, second: f.Second, vrf: f.VRF, n: len(f.Prefixes), hash: h}
}

func prefixesEqual(a, b []netip.Prefix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
