// Package routeserver implements the SDX route server (§3.2, §5.1 of the
// paper): it collects the routes advertised by each participant, computes
// one best route per prefix on behalf of every other participant, applies
// per-pair export policies, rewrites next hops to controller-supplied
// virtual next hops, and re-advertises the result over BGP.
//
// The Server type is the pure routing engine (no sockets), which the
// benchmarks drive directly; Frontend glues a Server to a bgp.Speaker for
// live deployments.
//
// Visibility. Whether advertiser X's route may reach receiver Y is decided
// in one place, visibleLocked: only if X is not Y, only within one VRF,
// and only if the export filter (New, SetRouteExportPolicy) allows it.
// BestFor, BestNextHopParticipant, Exports and ReachableVia all ask it.
//
// Concurrency. The candidate table is split into hash shards keyed by
// prefix, each with its own lock, so sessions churning disjoint prefixes
// proceed in parallel. The participant registry has a separate lock
// (partMu), always acquired before a shard lock, never after.
//
// Decision cache. With no export filter and no VRFs every receiver's best
// route derives from one (best, second-best) candidate pair per prefix,
// which each shard caches beside the candidates and clears whenever they
// change, so the hot read path (BestFor during re-advertisement and policy
// compilation) does not rescan the candidates. That pair is the only
// cache: when visibility is receiver-dependent, a read scans the prefix's
// few candidates under the shard's read lock.
//
// Memory. At full-DFZ scale (a million prefixes) per-prefix overhead is
// what decides whether the table fits: candidates are a sorted slice of
// (advertiser, route) rather than a map (a Go map's bucket array costs
// several hundred bytes even for two entries), routes carry interned
// *PathAttrs (one word instead of an inlined struct with three slices),
// and the decision cache is two indexes into the candidate slice, held in
// the same map entry.
//
// Keys. Every prefix-keyed table (the shards, each participant's
// Adj-RIB-In, the frontend's Adj-RIB-Out and pending sets) is keyed by the
// prefix as one netutil.Prefix4 word, which Go's map runtime hashes and
// compares on its 64-bit fast path. Exported methods keep netip.Prefix and
// convert once on entry; the engine is IPv4-only, so a non-IPv4 prefix is
// refused by the writers (ApplyUpdateTouched, Load) and absent to the
// readers.
package routeserver

import (
	"cmp"
	"fmt"
	"net/netip"
	"regexp"
	"slices"
	"sort"
	"sync"

	"sdx/internal/bgp"
	"sdx/internal/netutil"
	"sdx/internal/telemetry"
)

// ID names a participant. The SDX uses short names ("A", "B", "AS65001").
type ID string

// VRF names a routing/forwarding isolation domain for multi-tenant
// deployments: participants in different VRFs never see each other's
// routes, so overlapping private prefixes from different tenants coexist
// without collision. The empty VRF is the shared default domain every
// participant starts in.
type VRF string

type participant struct {
	id ID
	// as is the participant's 4-octet ASN (RFC 6793).
	as uint32
	// vrf is the participant's isolation domain ("" = shared default).
	vrf VRF
	// advertised is this participant's Adj-RIB-In at the route server.
	advertised *bgp.RIB
}

// numShards is the candidate-table fan-out. 64 keeps per-shard maps small
// and lets every session goroutine plus the compiler make progress
// simultaneously on commodity core counts. A shard index is a byte.
const numShards = 64

// candRoute is one advertiser's route for a prefix. The per-prefix
// candidate list is a slice sorted by advertiser ID: the handful of routes
// an IXP prefix attracts is cheaper to binary-search than to hash, and the
// sorted order doubles as the canonical deterministic scan order.
type candRoute struct {
	id    ID
	route bgp.Route
}

// findCand returns the index of id in the sorted candidate slice, or -1.
func findCand(cands []candRoute, id ID) int {
	i := sort.Search(len(cands), func(i int) bool { return cands[i].id >= id })
	if i < len(cands) && cands[i].id == id {
		return i
	}
	return -1
}

// prefixState is one prefix's entry in its shard: the candidates and, once
// cached, the decision over them. With no export filter and no VRF in use
// every receiver's best derives from two candidates — the globally best
// route and the best route not from the same advertiser: the first, unless
// the receiver IS its advertiser, in which case the second (a participant
// never learns its own route back). first and second index cands (-1: no
// such route), so the cache costs one word beside the slice it points
// into, and one map probe reads both. Any change to cands sets first to
// uncached. Ties between byte-identical routes resolve to the lowest
// advertiser ID, so the derivation is insertion-order independent.
type prefixState struct {
	cands         []candRoute
	first, second int32
}

// uncached is prefixState.first while the pair is not computed.
const uncached = -2

func (st *prefixState) cached() bool { return st.first != uncached }

// lookup returns prefix's state; an absent prefix has no candidates and no
// cached pair. Any shard lock is held.
func (sh *shard) lookup(prefix netutil.Prefix4) prefixState {
	if st, ok := sh.prefixes[prefix]; ok {
		return st
	}
	return prefixState{first: uncached}
}

// pairSnap is the cached pair with its routes materialized — the
// before/after unit the apply path diffs.
type pairSnap struct {
	firstID, secondID ID
	first, second     bgp.Route
	hasFirst          bool
	hasSecond         bool
}

func routeEq(a, b bgp.Route) bool {
	return a.Prefix == b.Prefix && a.PeerAS == b.PeerAS && a.PeerID == b.PeerID &&
		bgp.AttrsEqual(a.Attrs, b.Attrs)
}

func pairSnapEqual(a, b pairSnap) bool {
	if a.firstID != b.firstID || a.secondID != b.secondID ||
		a.hasFirst != b.hasFirst || a.hasSecond != b.hasSecond {
		return false
	}
	if a.hasFirst && !routeEq(a.first, b.first) {
		return false
	}
	if a.hasSecond && !routeEq(a.second, b.second) {
		return false
	}
	return true
}

// shard is one slice of the candidate table with its decision cache, both
// in one map. A prefix's cached pair is dropped whenever its candidates
// change and refilled by the apply diff or lazily on the next read.
// touched journals every prefix whose candidate set changed since the last
// DrainTouched — the feed for the controller's incremental FEC pass.
type shard struct {
	mu       sync.RWMutex
	prefixes map[netutil.Prefix4]prefixState
	touched  map[netutil.Prefix4]struct{}
}

// Server is the route-server engine.
type Server struct {
	// partMu guards the participant registry, routeExport, and epoch.
	// Lock order: partMu before any shard.mu, never the reverse.
	partMu       sync.RWMutex
	participants map[ID]*participant
	// sorted is the registry ordered by ID, rebuilt on add/remove.
	sorted []*participant
	// routeExport is the optional export filter (New,
	// SetRouteExportPolicy); it sees communities and other attributes.
	routeExport RouteExportFilter
	// vrfActive counts participants assigned a non-default VRF. While it
	// is zero every VRF check short-circuits, so single-tenant exchanges
	// pay nothing for the isolation machinery.
	vrfActive int
	// epoch counts export-visibility configuration changes (participant
	// add/remove, route-export policy installs). Consumers caching derived
	// export views (the controller's reach sets) compare it to detect that
	// the touched-prefix journal alone cannot explain what changed.
	epoch uint64

	shards [numShards]shard

	// Intrusive instruments: always counted, exported only once
	// EnableTelemetry has registered scrape-time readers for them.
	mBestRecomputations telemetry.Counter
	mBestCacheHits      telemetry.Counter
	mTouchedPrefixes    telemetry.Counter
	mAdvertisements     telemetry.Counter
	mWithdrawals        telemetry.Counter
	mPeerFlushes        telemetry.Counter
}

// New returns an empty Server with the given export filter (nil = export
// everything, the route-server default).
func New(f RouteExportFilter) *Server {
	s := &Server{
		participants: make(map[ID]*participant),
		routeExport:  f,
	}
	for i := range s.shards {
		s.shards[i].prefixes = make(map[netutil.Prefix4]prefixState)
		s.shards[i].touched = make(map[netutil.Prefix4]struct{})
	}
	return s
}

// shardIndex hashes a prefix to its shard: FNV-1a over the four address
// bytes, first octet first, and the length.
func shardIndex(p netutil.Prefix4) uint8 {
	a := uint32(p.Addr())
	h := uint32(2166136261)
	for _, b := range [5]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a), byte(p.Bits())} {
		h = (h ^ uint32(b)) * 16777619
	}
	return uint8(h % numShards)
}

// shardOf returns the shard holding a prefix.
func (s *Server) shardOf(p netutil.Prefix4) *shard {
	return &s.shards[shardIndex(p)]
}

// filteredLocked reports whether best routes are receiver-dependent:
// an export filter is installed, or VRF tenancy is active (a receiver only
// sees candidates from its own VRF). Called with partMu held (routeExport
// and vrfActive are guarded by it).
func (s *Server) filteredLocked() bool {
	return s.routeExport != nil || s.vrfActive > 0
}

// visibleLocked reports whether adv's route r may reach recv — the one
// export-visibility rule. A participant never learns its own route back,
// tenants see only their own VRF (with no tenancy configured every check
// short-circuits), and an installed export filter must allow the route;
// through a filter an unregistered receiver sees nothing, since the filter
// is handed the receiver's AS. partMu is held.
func (s *Server) visibleLocked(adv, recv ID, r bgp.Route) bool {
	if adv == recv || (s.vrfActive > 0 && s.vrfOfLocked(adv) != s.vrfOfLocked(recv)) {
		return false
	}
	if s.routeExport == nil {
		return true
	}
	p, ok := s.participants[recv]
	return ok && s.routeExport(adv, recv, p.as, r)
}

// vrfOfLocked returns id's VRF ("" for unknown participants, which keeps
// pre-registration probes in the default domain). partMu is held.
func (s *Server) vrfOfLocked(id ID) VRF {
	if p, ok := s.participants[id]; ok {
		return p.vrf
	}
	return ""
}

func (s *Server) rebuildSortedLocked() {
	s.sorted = s.sorted[:0]
	for _, p := range s.participants {
		s.sorted = append(s.sorted, p)
	}
	sort.Slice(s.sorted, func(i, j int) bool { return s.sorted[i].id < s.sorted[j].id })
}

// Reserve pre-sizes the per-shard tables for an expected prefix count. A
// full-table bulk load otherwise grows each shard's maps incrementally,
// paying repeated rehashes of six-figure-entry tables; sizing them up front
// is free for small tables and shaves seconds off a 1M-prefix load. Only
// empty shards are resized — Reserve after routes have landed is a no-op.
func (s *Server) Reserve(prefixes int) {
	per := prefixes/numShards + 1
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if len(sh.prefixes) == 0 {
			sh.prefixes = make(map[netutil.Prefix4]prefixState, per)
			sh.touched = make(map[netutil.Prefix4]struct{}, per)
		}
		sh.mu.Unlock()
	}
}

// AddParticipant registers a participant AS (4-octet, RFC 6793). Adding an
// existing ID is an error: participant identity is structural for the SDX
// controller.
func (s *Server) AddParticipant(id ID, as uint32) error {
	s.partMu.Lock()
	defer s.partMu.Unlock()
	if _, dup := s.participants[id]; dup {
		return fmt.Errorf("routeserver: participant %q already registered", id)
	}
	s.participants[id] = &participant{id: id, as: as, advertised: bgp.NewRIB()}
	s.rebuildSortedLocked()
	s.epoch++
	return nil
}

// RemoveParticipant withdraws everything the participant advertised and
// unregisters it, returning the touched prefixes.
func (s *Server) RemoveParticipant(id ID) []netip.Prefix {
	touched, ok := s.withdrawAll(id)
	if !ok {
		return nil
	}
	s.partMu.Lock()
	if p2, ok := s.participants[id]; ok && p2.vrf != "" {
		s.vrfActive--
	}
	delete(s.participants, id)
	s.rebuildSortedLocked()
	s.epoch++
	s.partMu.Unlock()
	return touched
}

// withdrawAll withdraws every route id has advertised and returns the
// touched prefixes; ok is false for an unknown participant.
func (s *Server) withdrawAll(id ID) (touched []netip.Prefix, ok bool) {
	s.partMu.RLock()
	p, ok := s.participants[id]
	var prefixes []netip.Prefix
	if ok {
		prefixes = p.advertised.Prefixes()
	}
	s.partMu.RUnlock()
	if !ok {
		return nil, false
	}
	// A concurrent RemoveParticipant is the only way this can fail, and then
	// there is nothing left to withdraw.
	touched, _ = s.ApplyUpdateTouched(id, prefixes, nil)
	return touched, true
}

// SetVRF places a participant in an isolation domain. Participants in
// different VRFs never exchange routes, so overlapping (e.g. RFC 1918)
// prefixes advertised by different tenants coexist in the candidate table
// without colliding — candidates stay keyed by bare prefix and the
// decision process filters by domain. Setting the empty VRF returns the
// participant to the shared default domain.
func (s *Server) SetVRF(id ID, vrf VRF) error {
	s.partMu.Lock()
	defer s.partMu.Unlock()
	p, ok := s.participants[id]
	if !ok {
		return fmt.Errorf("routeserver: unknown participant %q", id)
	}
	if p.vrf == vrf {
		return nil
	}
	if p.vrf == "" {
		s.vrfActive++
	} else if vrf == "" {
		s.vrfActive--
	}
	p.vrf = vrf
	s.epoch++
	return nil
}

// VRFOf returns the participant's VRF; the empty VRF is the shared
// default domain (also returned for unknown participants).
func (s *Server) VRFOf(id ID) VRF {
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	return s.vrfOfLocked(id)
}

// FlushParticipant withdraws every route the participant has advertised —
// the session-down path: a peer's routes die with its transport, exactly
// as a conventional route server flushes a neighbor's Adj-RIB-In — while
// keeping the participant registered for its return. It returns the
// touched prefixes.
func (s *Server) FlushParticipant(id ID) []netip.Prefix {
	touched, ok := s.withdrawAll(id)
	if ok {
		s.mPeerFlushes.Inc()
	}
	return touched
}

// Participants returns the registered IDs in sorted order.
func (s *Server) Participants() []ID {
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	out := make([]ID, len(s.sorted))
	for i, p := range s.sorted {
		out[i] = p.id
	}
	return out
}

// AS returns the participant's AS number.
func (s *Server) AS(id ID) (uint32, bool) {
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	p, ok := s.participants[id]
	if !ok {
		return 0, false
	}
	return p.as, true
}

// ExportEpoch returns a counter that advances whenever export visibility
// may have changed for reasons the touched-prefix journal does not record:
// participant registration and route-export-policy installation.
func (s *Server) ExportEpoch() uint64 {
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	return s.epoch
}

// DrainTouched returns and clears the set of prefixes whose candidate
// routes changed (any advertiser's route added, replaced, or withdrawn)
// since the previous drain. The controller's incremental FEC pass
// recomputes membership only for these. The result is unordered.
func (s *Server) DrainTouched() []netip.Prefix {
	var out []netip.Prefix
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if len(sh.touched) > 0 {
			for p := range sh.touched {
				out = append(out, p.Prefix())
			}
			sh.touched = make(map[netutil.Prefix4]struct{})
		}
		sh.mu.Unlock()
	}
	return out
}

// applyOp is one withdrawal or advertisement of an UPDATE: seq is its
// position in the UPDATE, withdrawals first.
type applyOp struct {
	prefix   netutil.Prefix4
	shard    uint8
	withdraw bool
	seq      int32
	route    bgp.Route
}

// compareOps orders ops by shard, then prefix, then position.
func compareOps(a, b applyOp) int {
	if c := cmp.Compare(a.shard, b.shard); c != 0 {
		return c
	}
	if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// ApplyUpdateTouched applies a whole UPDATE (or a coalesced burst) from one
// participant in a single pass — every mutation of the candidate table
// goes through it: all withdrawals and advertisements land under one lock
// acquisition per touched shard, with one before/after decision diff per
// touched prefix, instead of a full table scan per NLRI. When the same
// prefix appears in both lists, the advertisement wins (RFC 4271 §3.1: NLRI
// supersedes a withdrawal carried by the same message).
//
// It returns the touched prefixes — those whose decision outcome changed
// for some receiver — ordered by shard, then prefix. Consumers (the
// controller's fast path, the frontend's re-advertisement emitters) key on
// the prefix and re-read per-receiver state through BestFor. When the
// decision is receiver-dependent (an export policy or VRF tenancy) the
// per-receiver outcome cannot be derived from the (best, second-best) pair,
// so every prefix whose candidates changed is reported: a superset, safe
// for consumers that re-read.
//
// A non-IPv4 prefix in either list is an error naming it, and then nothing
// of the UPDATE is applied.
func (s *Server) ApplyUpdateTouched(from ID, withdrawn []netip.Prefix, advertised []bgp.Route) ([]netip.Prefix, error) {
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	p, ok := s.participants[from]
	if !ok {
		return nil, fmt.Errorf("routeserver: unknown participant %q", from)
	}
	if len(withdrawn) == 0 && len(advertised) == 0 {
		return nil, nil
	}

	ops := make([]applyOp, 0, len(withdrawn)+len(advertised))
	for _, w := range withdrawn {
		k, ok := netutil.AsPrefix4(w)
		if !ok {
			return nil, errNotIPv4(w)
		}
		ops = append(ops, applyOp{prefix: k, shard: shardIndex(k), withdraw: true, seq: int32(len(ops))})
	}
	for _, r := range advertised {
		k, ok := netutil.AsPrefix4(r.Prefix)
		if !ok {
			return nil, errNotIPv4(r.Prefix)
		}
		r.Prefix = k.Prefix()
		ops = append(ops, applyOp{prefix: k, shard: shardIndex(k), seq: int32(len(ops)), route: r})
	}
	s.mWithdrawals.Add(uint64(len(withdrawn)))
	s.mAdvertisements.Add(uint64(len(advertised)))

	// Sorted, each prefix's ops are adjacent and the last one is its net
	// effect; every other op is dropped.
	slices.SortFunc(ops, compareOps)
	netOps := ops[:0]
	for i, op := range ops {
		if i+1 == len(ops) || ops[i+1].prefix != op.prefix {
			netOps = append(netOps, op)
		}
	}

	// Adj-RIB-In first, then the shared candidate table shard by shard.
	for _, op := range netOps {
		if op.withdraw {
			p.advertised.Remove(op.prefix.Prefix())
		} else {
			p.advertised.Set(op.route)
		}
	}
	var touched []netip.Prefix
	for len(netOps) > 0 {
		n := 1
		for n < len(netOps) && netOps[n].shard == netOps[0].shard {
			n++
		}
		sh := &s.shards[netOps[0].shard]
		sh.mu.Lock()
		for _, op := range netOps[:n] {
			if s.applyOneLocked(sh, from, op) {
				touched = append(touched, op.prefix.Prefix())
			}
		}
		sh.mu.Unlock()
		netOps = netOps[n:]
	}
	s.mTouchedPrefixes.Add(uint64(len(touched)))
	return touched, nil
}

// RoutesFromUpdate renders an UPDATE's NLRI as the routes ApplyUpdateTouched
// takes, stamped with the identity of the session the UPDATE arrived on and
// sharing one interned attribute set.
func RoutesFromUpdate(u *bgp.Update, peerAS uint32, peerID netip.Addr) []bgp.Route {
	if len(u.NLRI) == 0 {
		return nil
	}
	attrs := bgp.Intern(u.Attrs)
	routes := make([]bgp.Route, len(u.NLRI))
	for i, nlri := range u.NLRI {
		routes[i] = bgp.Route{Prefix: nlri, Attrs: attrs, PeerAS: peerAS, PeerID: peerID}
	}
	return routes
}

// errNotIPv4 is the refusal of a prefix the IPv4-only engine cannot key.
func errNotIPv4(p netip.Prefix) error {
	return fmt.Errorf("routeserver: %v is not an IPv4 prefix", p)
}

// applyOneLocked mutates one prefix's candidates and reports whether the
// decision outcome changed. partMu (read) and the shard's write lock are
// held.
//
// Two fast paths keep steady-state churn quiet downstream: an update that
// leaves the advertiser's route byte-identical (a refresh) returns before
// touching anything, and — when the decision is receiver-independent — an
// update that leaves the (best, second-best) pair intact (the common case:
// churn on a non-best candidate) reports no change, since every receiver's
// answer derives from the pair.
func (s *Server) applyOneLocked(sh *shard, from ID, op applyOp) bool {
	st := sh.lookup(op.prefix)
	ci := findCand(st.cands, from)
	if op.withdraw {
		if ci < 0 {
			return false // withdrawing a route that was never there
		}
	} else if ci >= 0 && routeEq(st.cands[ci].route, op.route) {
		return false // unchanged re-advertisement: nothing downstream moves
	}
	if s.filteredLocked() {
		// "The candidates changed" is the strongest statement derivable
		// without a per-receiver diff.
		sh.storeLocked(op.prefix, st.store(ci, from, op))
		return true
	}
	before := s.snap(&st)
	st = st.store(ci, from, op)
	after := s.snap(&st)
	sh.storeLocked(op.prefix, st)
	return !pairSnapEqual(before, after)
}

// store writes op into st's candidates (ci is findCand's answer for the
// advertiser) and drops the cached pair.
func (st prefixState) store(ci int, from ID, op applyOp) prefixState {
	switch {
	case op.withdraw:
		st.cands = append(st.cands[:ci], st.cands[ci+1:]...)
	case ci >= 0:
		st.cands[ci].route = op.route
	default:
		i := sort.Search(len(st.cands), func(i int) bool { return st.cands[i].id >= from })
		st.cands = append(st.cands, candRoute{})
		copy(st.cands[i+1:], st.cands[i:])
		st.cands[i] = candRoute{id: from, route: op.route}
	}
	st.first = uncached
	return st
}

// storeLocked saves a changed prefix state, dropping it once it holds no
// candidate, and journals the prefix as touched. The shard's write lock is
// held.
func (sh *shard) storeLocked(prefix netutil.Prefix4, st prefixState) {
	if len(st.cands) == 0 {
		delete(sh.prefixes, prefix)
	} else {
		sh.prefixes[prefix] = st
	}
	sh.touched[prefix] = struct{}{}
}

// cache fills st's pair if it is not cached, counting the hit or the
// recomputation, and reports whether it had to compute.
func (s *Server) cache(st *prefixState) bool {
	if st.cached() {
		s.mBestCacheHits.Inc()
		return false
	}
	s.mBestRecomputations.Inc()
	st.first, st.second = computePair(st.cands)
	return true
}

// snap materializes st's pair, computing it if needed.
func (s *Server) snap(st *prefixState) pairSnap {
	s.cache(st)
	var ps pairSnap
	if st.first >= 0 {
		c := st.cands[st.first]
		ps.firstID, ps.first, ps.hasFirst = c.id, c.route, true
	}
	if st.second >= 0 {
		c := st.cands[st.second]
		ps.secondID, ps.second, ps.hasSecond = c.id, c.route, true
	}
	return ps
}

// pairLocked returns prefix's state with its pair cached, computing and
// saving the pair on a miss; ok is false when the prefix has no candidate.
// The shard's write lock is held.
func (s *Server) pairLocked(sh *shard, prefix netutil.Prefix4) (prefixState, bool) {
	st, ok := sh.prefixes[prefix]
	if ok && s.cache(&st) {
		sh.prefixes[prefix] = st
	}
	return st, ok
}

// computePair runs the decision process over the candidates in canonical
// (ID-sorted) order and returns the indexes of the best route and of the
// best route from another advertiser (-1: none). A later route replaces
// the leader only when strictly better, so equal routes resolve to the
// lowest advertiser ID.
func computePair(cands []candRoute) (first, second int32) {
	first, second = -1, -1
	for i, c := range cands {
		if first < 0 || c.route.Better(cands[first].route) {
			first = int32(i)
		}
	}
	for i, c := range cands {
		if int32(i) == first {
			continue
		}
		if second < 0 || c.route.Better(cands[second].route) {
			second = int32(i)
		}
	}
	return first, second
}

// computeBestLocked runs the filtered decision process over the prefix's
// candidates in canonical advertiser order, returning the advertiser and
// route of recv's best visible candidate. partMu (read) and a shard lock
// are held.
func (s *Server) computeBestLocked(sh *shard, recv ID, prefix netutil.Prefix4) (ID, bgp.Route, bool) {
	s.mBestRecomputations.Inc()
	var adv ID
	var best bgp.Route
	found := false
	for _, c := range sh.prefixes[prefix].cands {
		if s.visibleLocked(c.id, recv, c.route) && (!found || c.route.Better(best)) {
			adv, best, found = c.id, c.route, true
		}
	}
	return adv, best, found
}

// Advertise installs or replaces from's route and returns the touched
// prefixes.
func (s *Server) Advertise(from ID, route bgp.Route) ([]netip.Prefix, error) {
	return s.ApplyUpdateTouched(from, nil, []bgp.Route{route})
}

// Load installs a route without the decision diff: the bulk path for
// initial table transfer, where the caller compiles once afterward anyway.
// The diff Advertise runs per route matters when loading hundreds of
// thousands of routes. A non-IPv4 route is an error naming its prefix.
func (s *Server) Load(from ID, route bgp.Route) error {
	k, ok := netutil.AsPrefix4(route.Prefix)
	if !ok {
		return errNotIPv4(route.Prefix)
	}
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	p, ok := s.participants[from]
	if !ok {
		return fmt.Errorf("routeserver: unknown participant %q", from)
	}
	route.Prefix = k.Prefix()
	s.mAdvertisements.Inc()
	p.advertised.Set(route)
	sh := s.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.lookup(k)
	sh.storeLocked(k, st.store(findCand(st.cands, from), from, applyOp{prefix: k, route: route}))
	return nil
}

// Withdraw removes from's route for prefix and returns the touched
// prefixes.
func (s *Server) Withdraw(from ID, prefix netip.Prefix) ([]netip.Prefix, error) {
	return s.ApplyUpdateTouched(from, []netip.Prefix{prefix}, nil)
}

// BestFor returns participant id's best route for prefix: the decision
// process over every other participant's advertised route that id may see.
// Without an export filter or VRFs the result is derived from the shard's
// cached advertiser pair.
func (s *Server) BestFor(id ID, prefix netip.Prefix) (bgp.Route, bool) {
	k, ok := netutil.AsPrefix4(prefix)
	if !ok {
		return bgp.Route{}, false
	}
	_, r, ok := s.best(id, k)
	return r, ok
}

// BestNextHopParticipant returns the participant whose route is id's best
// for prefix — the default forwarding neighbor the SDX falls back to.
func (s *Server) BestNextHopParticipant(id ID, prefix netip.Prefix) (ID, bool) {
	k, ok := netutil.AsPrefix4(prefix)
	if !ok {
		return "", false
	}
	adv, _, ok := s.best(id, k)
	return adv, ok
}

// best is the one best-candidate lookup: the advertiser and route of id's
// best route for prefix.
func (s *Server) best(id ID, prefix netutil.Prefix4) (ID, bgp.Route, bool) {
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	sh := s.shardOf(prefix)
	sh.mu.RLock()
	if s.filteredLocked() {
		defer sh.mu.RUnlock()
		return s.computeBestLocked(sh, id, prefix)
	}

	// Fast path: a read lock suffices on a cache hit.
	if st := sh.lookup(prefix); st.cached() {
		adv, r, ok := st.derive(id)
		sh.mu.RUnlock()
		s.mBestCacheHits.Inc()
		return adv, r, ok
	}
	sh.mu.RUnlock()

	// Miss: recompute and fill the cache under the write lock.
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := s.pairLocked(sh, prefix)
	if !ok {
		return "", bgp.Route{}, false
	}
	return st.derive(id)
}

// derive resolves a cached pair for one receiver. A writer may change the
// candidate slice in place, so the shard lock (read or write) is held.
func (st prefixState) derive(id ID) (ID, bgp.Route, bool) {
	i := st.first
	if i >= 0 && st.cands[i].id == id {
		i = st.second
	}
	if i < 0 {
		return "", bgp.Route{}, false
	}
	return st.cands[i].id, st.cands[i].route, true
}

// HasExportPolicy reports whether per-pair export filtering is configured.
// Without one, the prefixes reachable via a hop are the same for every
// receiver, which lets the SDX compiler share one BGP filter per hop across
// all participants' policies (the §4.3.1 idiom-reuse optimization).
func (s *Server) HasExportPolicy() bool {
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	return s.filteredLocked()
}

// BestTwoIn returns the advertisers of the best and second-best routes
// for prefix among the candidates in the given isolation domain, ignoring
// export filters. Every participant's default next hop is derivable from
// the pair: the best advertiser, unless that is the participant itself, in
// which case the second. The SDX FEC computation keys on this pair. Empty
// IDs mean "no such route". With no tenancy configured it is served from
// the shard's pair cache; once VRFs are active the domain's candidates run
// through the same decision (computePair) uncached, which is cheap because
// an IXP prefix attracts a handful of candidates.
func (s *Server) BestTwoIn(vrf VRF, p netip.Prefix) (first, second ID) {
	prefix, ok := netutil.AsPrefix4(p)
	if !ok {
		return "", ""
	}
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	sh := s.shardOf(prefix)
	if s.vrfActive > 0 {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		s.mBestRecomputations.Inc()
		var inVRF []candRoute
		for _, c := range sh.prefixes[prefix].cands {
			if s.vrfOfLocked(c.id) == vrf {
				inVRF = append(inVRF, c)
			}
		}
		i, j := computePair(inVRF)
		return pairIDs(inVRF, i, j)
	}
	if vrf != "" {
		return "", "" // nobody lives in a named VRF
	}
	sh.mu.RLock()
	if st := sh.lookup(prefix); st.cached() {
		first, second = pairIDs(st.cands, st.first, st.second)
		sh.mu.RUnlock()
		s.mBestCacheHits.Inc()
		return first, second
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := s.pairLocked(sh, prefix)
	if !ok {
		return "", ""
	}
	return pairIDs(st.cands, st.first, st.second)
}

// pairIDs names the advertisers at a pair's indexes ("" for none).
func pairIDs(cands []candRoute, first, second int32) (ID, ID) {
	var a, b ID
	if first >= 0 {
		a = cands[first].id
	}
	if second >= 0 {
		b = cands[second].id
	}
	return a, b
}

// Exports reports whether hop's current route for prefix is exported to
// id — the single-prefix probe the controller's incremental reach-set
// maintenance uses to patch cached ReachableVia results for touched
// prefixes.
func (s *Server) Exports(hop, id ID, prefix netip.Prefix) bool {
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	p, ok := s.participants[hop]
	if !ok {
		return false
	}
	r, ok := p.advertised.Get(prefix)
	return ok && s.visibleLocked(hop, id, r)
}

// ReachableVia returns the prefixes that hop exported to id: the set the
// SDX restricts id's fwd(hop) policies to (§4.1 "enforcing consistency with
// BGP advertisements"). The result is a fresh set the caller may retain.
func (s *Server) ReachableVia(id, hop ID) *netutil.PrefixSet {
	out := netutil.NewPrefixSet()
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	p, ok := s.participants[hop]
	if !ok {
		return out
	}
	p.advertised.Walk(func(r bgp.Route) bool {
		if s.visibleLocked(hop, id, r) {
			out.Add(r.Prefix)
		}
		return true
	})
	return out
}

// Advertised returns the prefixes a participant currently advertises.
func (s *Server) Advertised(id ID) []netip.Prefix {
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	p, ok := s.participants[id]
	if !ok {
		return nil
	}
	ps := p.advertised.Prefixes()
	netutil.SortPrefixes(ps)
	return ps
}

// AdvertisedRoute returns id's advertised route for prefix.
func (s *Server) AdvertisedRoute(id ID, prefix netip.Prefix) (bgp.Route, bool) {
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	p, ok := s.participants[id]
	if !ok {
		return bgp.Route{}, false
	}
	return p.advertised.Get(prefix)
}

// Prefixes returns every prefix with at least one candidate route, sorted.
func (s *Server) Prefixes() []netip.Prefix {
	return toPrefixes(s.prefixes4())
}

// prefixes4 is Prefixes as keys: numeric order is the canonical order.
func (s *Server) prefixes4() []netutil.Prefix4 {
	var out []netutil.Prefix4
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for p := range sh.prefixes {
			out = append(out, p)
		}
		sh.mu.RUnlock()
	}
	slices.Sort(out)
	return out
}

// toPrefixes converts keys back to the netip.Prefix the exported API speaks.
func toPrefixes(ks []netutil.Prefix4) []netip.Prefix {
	out := make([]netip.Prefix, len(ks))
	for i, k := range ks {
		out[i] = k.Prefix()
	}
	return out
}

// FilterASPath returns the prefixes with at least one candidate route whose
// AS path matches the regular expression — the paper's RIB.filter idiom,
// used by the middlebox application to group YouTube-originated traffic.
// The candidate attribute pointers are snapshotted under each shard's read
// lock and the regexp runs outside it, so a full-table scan cannot stall
// session writers; interned attribute sets are immutable, so the unlocked
// match reads stable data. Distinct attribute pointers are matched once.
func (s *Server) FilterASPath(expr string) ([]netip.Prefix, error) {
	re, err := regexp.Compile(expr)
	if err != nil {
		return nil, fmt.Errorf("routeserver: bad as-path filter: %w", err)
	}
	type cand struct {
		prefix netutil.Prefix4
		attrs  *bgp.PathAttrs
	}
	var snap []cand
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for prefix, st := range sh.prefixes {
			for _, c := range st.cands {
				snap = append(snap, cand{prefix, c.route.Attrs})
			}
		}
		sh.mu.RUnlock()
	}
	// With interned attributes a full table holds only a few thousand
	// distinct sets; memoize the regexp verdict per pointer.
	verdicts := make(map[*bgp.PathAttrs]bool)
	var out []netutil.Prefix4
	seen := make(map[netutil.Prefix4]bool)
	for _, c := range snap {
		v, ok := verdicts[c.attrs]
		if !ok {
			var a bgp.PathAttrs
			if c.attrs != nil {
				a = *c.attrs
			}
			v = re.MatchString(a.ASPathString())
			verdicts[c.attrs] = v
		}
		if v && !seen[c.prefix] {
			seen[c.prefix] = true
			out = append(out, c.prefix)
		}
	}
	slices.Sort(out)
	return toPrefixes(out), nil
}
