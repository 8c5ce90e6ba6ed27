package core

import (
	"cmp"
	"net/netip"
	"slices"
	"strings"
	"sync"

	"sdx/internal/netutil"
)

// Incremental Minimum Disjoint Subset (§4.2) input maintenance. The
// background pass groups every policy-relevant prefix by a signature —
// its membership across the policy reach sets plus the advertisers of its
// best and second-best routes — and each distinct signature is one
// forwarding equivalence class. Rebuilding those signatures from scratch
// is O(prefixes × reach sets) per pass, which is what full-table scale
// makes unaffordable. fecState caches the reach sets, the prefix
// universe, and one interned signature pointer per prefix, and between
// passes re-signs only the prefixes the route server journaled as touched
// (DrainTouched). The grouping pass itself stays a single ordered sweep
// over the sorted universe, so the incremental path produces classes
// byte-identical to a from-scratch computation — the determinism
// invariant the equivalence tests pin down.

// reachKey names one pass-1 grouping input: hop's exports to participant,
// relevant because the participant's outbound policy forwards there.
type reachKey struct {
	participant ID
	hop         ID
}

// fecSig is one interned membership signature. Prefixes sharing a pointer
// are in the same equivalence class; the grouping sweep compares pointers
// only. The signature key embeds the VRF, so classes never span isolation
// domains even when tenants advertise identical prefixes.
type fecSig struct {
	key           string
	vrf           VRF
	first, second ID
}

// fecState is the controller's cached MDS input, shared by reference into
// every compilation pipeline. All mutation happens under compileMu (only
// the background pass refreshes it); the mutex exists for invalidate(),
// which participant registration calls from outside the compile path.
type fecState struct {
	mu    sync.Mutex
	valid bool

	// epoch is the route server's export epoch as of the last refresh;
	// a mismatch means export visibility changed in ways the touched
	// journal does not record, forcing a full rebuild.
	epoch uint64
	// keys/sets are the reach sets in deterministic (participant, hop)
	// order; sets are patched in place for touched prefixes. keyVRFs[i] is
	// the isolation domain of keys[i]'s hop: a reach set only ever holds
	// prefixes from that domain, so signature bits are guarded by it —
	// without the guard, a bare-prefix Contains probe would let one
	// tenant's 10.0.0.0/8 light up another tenant's signature bit.
	keys    []reachKey
	keyVRFs []VRF
	sets    []*netutil.PrefixSet
	// portless lists the participants with no physical ports, whose
	// advertised prefixes always need a tag (remote origination).
	portless []ID

	// universe maps every policy-relevant (VRF, prefix) pair to its
	// interned signature; sorted is the same key set in canonical (VRF,
	// prefix) order. Single-tenant exchanges only ever populate the
	// default domain, so the keying is byte-transparent there.
	universe map[vrfPrefix]*fecSig
	sorted   []vrfPrefix

	// sigs hash-conses signatures so the grouping sweep is pointer-based;
	// grouping trims it to the live classes.
	sigs map[string]*fecSig
}

func newFECState() *fecState { return &fecState{} }

// invalidate forces the next background pass to rebuild from scratch.
// Participant registration calls it: it changes the portless list and the
// VRF map. The other rebuild triggers are checked by refresh itself: an
// export-epoch bump and changed reach keys. A policy change that keeps the
// reach keys leaves the state valid.
func (st *fecState) invalidate() {
	st.mu.Lock()
	st.valid = false
	st.mu.Unlock()
}

// refresh brings the cached reach sets, universe, and signatures up to
// date, incrementally when the cache is valid and only journaled prefixes
// changed. It returns the reach sets in deterministic order (the same
// slice contents a from-scratch collectReachSets would produce), whether
// a full rebuild ran, and how many prefixes were re-signed.
func (st *fecState) refresh(p *pipeline) ([]reachSet, bool, int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	keys := p.reachSetKeys()
	epoch := p.rs.ExportEpoch()
	// The journal is drained unconditionally so it cannot grow without
	// bound; a full rebuild simply ignores its contents.
	touched := p.rs.DrainTouched()
	full := !st.valid || epoch != st.epoch || !reachKeysEqual(keys, st.keys)
	resigned := 0
	if full {
		st.rebuildLocked(p, keys, epoch)
		resigned = len(st.sorted)
	} else {
		st.epoch = epoch
		if len(touched) > 0 {
			st.patchLocked(p, touched)
			resigned = len(touched)
		}
	}
	sets := make([]reachSet, len(st.keys))
	for i, k := range st.keys {
		sets[i] = reachSet{participant: k.participant, hop: k.hop, set: st.sets[i]}
	}
	return sets, full, resigned
}

// grouping returns the equivalence groups over the cached universe:
// signatures in first-appearance order along the sorted prefixes, and the
// member prefixes of each. The member slices alias the sweep's appends and
// are in sorted order, exactly as the from-scratch pass produced them.
// The sweep sees every live signature, so it also drops the interned ones
// no prefix holds any more: without that, a long-running controller that
// rebuilds rarely would keep every signature patchLocked ever rendered.
func (st *fecState) grouping() ([]*fecSig, map[*fecSig][]netip.Prefix) {
	st.mu.Lock()
	defer st.mu.Unlock()
	groups := make(map[*fecSig][]netip.Prefix)
	order := make([]*fecSig, 0, 64)
	for _, key := range st.sorted {
		sig := st.universe[key]
		if _, seen := groups[sig]; !seen {
			order = append(order, sig)
		}
		groups[sig] = append(groups[sig], key.prefix)
	}
	st.sigs = make(map[string]*fecSig, len(order))
	for _, sig := range order {
		st.sigs[sig.key] = sig
	}
	return order, groups
}

// rebuildLocked recomputes everything from the route server: the shape a
// first pass, a participant registration, changed reach keys or an
// export-epoch bump requires.
func (st *fecState) rebuildLocked(p *pipeline, keys []reachKey, epoch uint64) {
	st.keys = keys
	st.epoch = epoch
	st.keyVRFs = make([]VRF, len(keys))
	for i, k := range keys {
		st.keyVRFs[i] = p.vrfOf(k.hop)
	}
	st.sets = make([]*netutil.PrefixSet, len(keys))
	for i, k := range keys {
		st.sets[i] = p.rs.ReachableVia(k.participant, k.hop)
	}
	st.portless = st.portless[:0]
	for _, part := range p.parts {
		if len(part.Ports) == 0 {
			st.portless = append(st.portless, part.ID)
		}
	}
	// The universe is usually about as large as the last one, or at least
	// as the largest reach set.
	size := len(st.universe)
	for _, set := range st.sets {
		size = max(size, set.Len())
	}
	st.universe = make(map[vrfPrefix]*fecSig, size)
	for i, set := range st.sets {
		vrf := st.keyVRFs[i]
		set.Each(func(pfx netip.Prefix) {
			st.universe[vrfPrefix{vrf: vrf, prefix: pfx}] = nil
		})
	}
	for _, id := range st.portless {
		vrf := p.vrfOf(id)
		for _, pfx := range p.rs.Advertised(id) {
			st.universe[vrfPrefix{vrf: vrf, prefix: pfx}] = nil
		}
	}
	st.sorted = make([]vrfPrefix, 0, len(st.universe))
	for key := range st.universe {
		st.sorted = append(st.sorted, key)
	}
	sortVRFPrefixes(st.sorted)

	st.sigs = make(map[string]*fecSig)
	for _, key := range st.sorted {
		k, first, second := st.sigKey(p, key)
		st.universe[key] = st.intern(k, key.vrf, first, second)
	}
	st.valid = true
}

// sortVRFPrefixes orders universe keys canonically: by domain first, then
// by prefix, so the grouping sweep (and therefore VNH assignment)
// is deterministic across passes.
func sortVRFPrefixes(keys []vrfPrefix) {
	slices.SortFunc(keys, func(a, b vrfPrefix) int {
		if c := cmp.Compare(a.vrf, b.vrf); c != 0 {
			return c
		}
		return netutil.ComparePrefixes(a.prefix, b.prefix)
	})
}

// patchLocked re-signs exactly the journaled prefixes against the cached
// sets (patched in place) and rebuilds the sorted universe only when
// membership actually changed. Touched prefixes are processed in canonical
// order so the pass is reproducible.
func (st *fecState) patchLocked(p *pipeline, touched []netip.Prefix) {
	netutil.SortPrefixes(touched)
	domains := p.vrfDomains()
	membershipChanged := false
	for _, pfx := range touched {
		// Patch the reach sets, accumulating which domains still hold the
		// prefix (Exports is already VRF-aware, so a set only ever gains
		// prefixes from its own domain).
		present := make(map[VRF]bool, len(domains))
		for i, k := range st.keys {
			if p.rs.Exports(k.hop, k.participant, pfx) {
				st.sets[i].Add(pfx)
				present[st.keyVRFs[i]] = true
			} else {
				st.sets[i].Remove(pfx)
			}
		}
		for _, id := range st.portless {
			if _, ok := p.rs.AdvertisedRoute(id, pfx); ok {
				present[p.vrfOf(id)] = true
			}
		}
		// Reconcile the prefix's universe entry per domain.
		for _, vrf := range domains {
			ukey := vrfPrefix{vrf: vrf, prefix: pfx}
			_, was := st.universe[ukey]
			if !present[vrf] {
				if was {
					delete(st.universe, ukey)
					membershipChanged = true
				}
				continue
			}
			key, first, second := st.sigKey(p, ukey)
			st.universe[ukey] = st.intern(key, vrf, first, second)
			if !was {
				membershipChanged = true
			}
		}
	}
	if membershipChanged {
		st.sorted = st.sorted[:0]
		for key := range st.universe {
			st.sorted = append(st.sorted, key)
		}
		sortVRFPrefixes(st.sorted)
	}
}

// sigKey renders one universe entry's signature from the cached reach sets
// plus the route server's current best-two advertisers in the entry's
// domain. A set contributes a bit only when it belongs to the same domain:
// reach sets hold bare prefixes, so without the guard a tenant's private
// prefix would match another tenant's identical advertisement. The
// rendering is stable across incremental and full passes, so interned
// pointers are interchangeable.
func (st *fecState) sigKey(p *pipeline, ukey vrfPrefix) (string, ID, ID) {
	first, second := p.rs.BestTwoIn(ukey.vrf, ukey.prefix)
	member := func(i int) bool {
		return st.keyVRFs[i] == ukey.vrf && st.sets[i].Contains(ukey.prefix)
	}
	return renderSig(len(st.sets), member, ukey.vrf, first, second), first, second
}

// renderSig is the one rendering of an MDS signature: a membership bit per
// policy reach key (in reachSetKeys order), the advertisers of the best and
// second-best routes, and the isolation domain. The background stage interns
// it to define the classes; the quick stage keys its template memo with it —
// two prefixes with equal signatures compile to the same rules up to the tag.
func renderSig(n int, member func(int) bool, vrf VRF, first, second ID) string {
	var b strings.Builder
	b.Grow(n + len(first) + len(second) + len(vrf) + 3)
	for i := 0; i < n; i++ {
		if member(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	b.WriteByte('|')
	b.WriteString(string(first))
	b.WriteByte('|')
	b.WriteString(string(second))
	b.WriteByte('|')
	b.WriteString(string(vrf))
	return b.String()
}

func (st *fecState) intern(key string, vrf VRF, first, second ID) *fecSig {
	if s, ok := st.sigs[key]; ok {
		return s
	}
	s := &fecSig{key: key, vrf: vrf, first: first, second: second}
	if st.sigs == nil {
		st.sigs = make(map[string]*fecSig)
	}
	st.sigs[key] = s
	return s
}

// reachSetKeys computes the (participant, hop) pairs the current policies
// need reach sets for, in deterministic order — the cheap, policy-only
// half of collectReachSets.
func (p *pipeline) reachSetKeys() []reachKey {
	var out []reachKey
	for _, part := range p.parts {
		if part.Outbound == nil {
			continue
		}
		targets := map[uint16]bool{}
		collectFwdTargets(part.Outbound, targets)
		var hops []ID
		for loc := range targets {
			if !IsVirtual(loc) {
				continue
			}
			if id, ok := p.byVPort[loc]; ok {
				hops = append(hops, id)
			}
		}
		slices.Sort(hops)
		for _, hop := range hops {
			out = append(out, reachKey{participant: part.ID, hop: hop})
		}
	}
	return out
}

func reachKeysEqual(a, b []reachKey) bool {
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
