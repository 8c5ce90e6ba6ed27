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
// route derives from one (best, second-best) advertiser pair per prefix,
// which each shard caches and drops whenever the prefix's candidates
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
// and the decision cache stores advertiser IDs only — the routes they name
// are recovered by binary search in the candidate slice.
package routeserver

import (
	"fmt"
	"net/netip"
	"regexp"
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
// simultaneously on commodity core counts.
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

// bestPair caches the decision process for one prefix when no export
// filter is installed and no VRF is in use: the advertisers of the
// globally best route and of the best route not from the same advertiser.
// Every receiver's best is derivable from the pair — the first
// advertiser's route, unless the receiver IS the first advertiser, in
// which case the second's (a participant never learns its own route back).
// Only the IDs are cached; the routes are recovered from the candidate
// slice, so the cache costs two strings per prefix instead of two full
// routes. Ties between byte-identical routes resolve to the lowest
// advertiser ID, so the derivation is insertion-order independent.
type bestPair struct {
	firstID, secondID ID
}

// pairSnap is a bestPair with its routes materialized — the before/after
// unit the apply path diffs.
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

// shard is one slice of the candidate table with its decision cache. A
// prefix's pair entry is deleted whenever its candidates change and
// refilled lazily on the next read. touched journals every prefix whose
// candidate set changed since the last DrainTouched — the feed for the
// controller's incremental FEC pass.
type shard struct {
	mu         sync.RWMutex
	candidates map[netip.Prefix][]candRoute
	pair       map[netip.Prefix]bestPair
	touched    map[netip.Prefix]struct{}
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
		s.shards[i].candidates = make(map[netip.Prefix][]candRoute)
		s.shards[i].pair = make(map[netip.Prefix]bestPair)
		s.shards[i].touched = make(map[netip.Prefix]struct{})
	}
	return s
}

// shardOf hashes a prefix to its shard (FNV-1a over address and length).
func (s *Server) shardOf(p netip.Prefix) *shard {
	return &s.shards[s.shardIndex(p)]
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
		if len(sh.candidates) == 0 {
			sh.candidates = make(map[netip.Prefix][]candRoute, per)
			sh.touched = make(map[netip.Prefix]struct{}, per)
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
				out = append(out, p)
			}
			sh.touched = make(map[netip.Prefix]struct{})
		}
		sh.mu.Unlock()
	}
	return out
}

// applyOp is the net effect of one UPDATE on one prefix.
type applyOp struct {
	prefix   netip.Prefix
	withdraw bool
	route    bgp.Route
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
	s.mWithdrawals.Add(uint64(len(withdrawn)))
	s.mAdvertisements.Add(uint64(len(advertised)))

	ops := make(map[netip.Prefix]applyOp, len(withdrawn)+len(advertised))
	for _, w := range withdrawn {
		w = w.Masked()
		ops[w] = applyOp{prefix: w, withdraw: true}
	}
	for _, r := range advertised {
		r.Prefix = r.Prefix.Masked()
		ops[r.Prefix] = applyOp{prefix: r.Prefix, route: r}
	}

	// Adj-RIB-In first, then the shared candidate table shard by shard.
	var byShard [numShards][]applyOp
	for _, op := range ops {
		if op.withdraw {
			p.advertised.Remove(op.prefix)
		} else {
			p.advertised.Set(op.route)
		}
		si := s.shardIndex(op.prefix)
		byShard[si] = append(byShard[si], op)
	}

	var touched []netip.Prefix
	for si := range byShard {
		list := byShard[si]
		if len(list) == 0 {
			continue
		}
		sort.Slice(list, func(i, j int) bool { return prefixLess(list[i].prefix, list[j].prefix) })
		sh := &s.shards[si]
		sh.mu.Lock()
		for _, op := range list {
			if s.applyOneLocked(sh, from, op) {
				touched = append(touched, op.prefix)
			}
		}
		sh.mu.Unlock()
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

func (s *Server) shardIndex(p netip.Prefix) uint32 {
	a := p.Addr().As4()
	h := uint32(2166136261)
	for _, b := range a {
		h = (h ^ uint32(b)) * 16777619
	}
	h = (h ^ uint32(p.Bits())) * 16777619
	return h % numShards
}

func prefixLess(a, b netip.Prefix) bool {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c < 0
	}
	return a.Bits() < b.Bits()
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
	cands := sh.candidates[op.prefix]
	ci := findCand(cands, from)
	if op.withdraw {
		if ci < 0 {
			return false // withdrawing a route that was never there
		}
	} else if ci >= 0 && routeEq(cands[ci].route, op.route) {
		return false // unchanged re-advertisement: nothing downstream moves
	}
	if s.filteredLocked() {
		// "The candidates changed" is the strongest statement derivable
		// without a per-receiver diff.
		sh.storeLocked(cands, ci, from, op)
		return true
	}
	before := s.pairSnapLocked(sh, op.prefix)
	sh.storeLocked(cands, ci, from, op)
	return !pairSnapEqual(before, s.pairSnapLocked(sh, op.prefix))
}

// storeLocked writes op into cands, the prefix's sorted candidate slice (ci
// is findCand's answer for the advertiser), journals the prefix as touched
// and drops its cached pair. The shard's write lock is held.
func (sh *shard) storeLocked(cands []candRoute, ci int, from ID, op applyOp) {
	prefix := op.prefix
	switch {
	case op.withdraw:
		cands = append(cands[:ci], cands[ci+1:]...)
		if len(cands) == 0 {
			delete(sh.candidates, prefix)
		} else {
			sh.candidates[prefix] = cands
		}
	case ci >= 0:
		cands[ci].route = op.route
	default:
		i := sort.Search(len(cands), func(i int) bool { return cands[i].id >= from })
		cands = append(cands, candRoute{})
		copy(cands[i+1:], cands[i:])
		cands[i] = candRoute{id: from, route: op.route}
		sh.candidates[prefix] = cands
	}
	sh.touched[prefix] = struct{}{}
	delete(sh.pair, prefix)
}

// pairLocked returns the (best, second-best) advertiser pair for prefix,
// computing and caching it on miss. The shard's write lock is held.
func (s *Server) pairLocked(sh *shard, prefix netip.Prefix) (bestPair, bool) {
	if pr, hit := sh.pair[prefix]; hit {
		s.mBestCacheHits.Inc()
		return pr, true
	}
	cands := sh.candidates[prefix]
	if len(cands) == 0 {
		return bestPair{}, false
	}
	s.mBestRecomputations.Inc()
	pr := computePair(cands)
	sh.pair[prefix] = pr
	return pr, true
}

// pairSnapLocked materializes the pair's routes from the candidate slice.
// The shard's write lock is held.
func (s *Server) pairSnapLocked(sh *shard, prefix netip.Prefix) pairSnap {
	pr, ok := s.pairLocked(sh, prefix)
	if !ok {
		return pairSnap{}
	}
	ps := pairSnap{firstID: pr.firstID, secondID: pr.secondID}
	cands := sh.candidates[prefix]
	if i := findCand(cands, pr.firstID); i >= 0 {
		ps.first, ps.hasFirst = cands[i].route, true
	}
	if pr.secondID != "" {
		if i := findCand(cands, pr.secondID); i >= 0 {
			ps.second, ps.hasSecond = cands[i].route, true
		}
	}
	return ps
}

// computePair runs the decision process over the candidates in canonical
// (ID-sorted) order: a later route replaces the leader only when strictly
// better, so equal routes resolve to the lowest advertiser ID.
func computePair(cands []candRoute) bestPair {
	var pr bestPair
	var first, second bgp.Route
	for _, c := range cands {
		if pr.firstID == "" || c.route.Better(first) {
			pr.firstID, first = c.id, c.route
		}
	}
	for _, c := range cands {
		if c.id == pr.firstID {
			continue
		}
		if pr.secondID == "" || c.route.Better(second) {
			pr.secondID, second = c.id, c.route
		}
	}
	return pr
}

// computeBestLocked runs the filtered decision process over the prefix's
// candidates in canonical advertiser order, returning the advertiser and
// route of recv's best visible candidate. partMu (read) and a shard lock
// are held.
func (s *Server) computeBestLocked(sh *shard, recv ID, prefix netip.Prefix) (ID, bgp.Route, bool) {
	s.mBestRecomputations.Inc()
	var adv ID
	var best bgp.Route
	found := false
	for _, c := range sh.candidates[prefix] {
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
// thousands of routes.
func (s *Server) Load(from ID, route bgp.Route) error {
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	p, ok := s.participants[from]
	if !ok {
		return fmt.Errorf("routeserver: unknown participant %q", from)
	}
	route.Prefix = route.Prefix.Masked()
	s.mAdvertisements.Inc()
	p.advertised.Set(route)
	sh := s.shardOf(route.Prefix)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cands := sh.candidates[route.Prefix]
	sh.storeLocked(cands, findCand(cands, from), from, applyOp{prefix: route.Prefix, route: route})
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
	_, r, ok := s.best(id, prefix)
	return r, ok
}

// BestNextHopParticipant returns the participant whose route is id's best
// for prefix — the default forwarding neighbor the SDX falls back to.
func (s *Server) BestNextHopParticipant(id ID, prefix netip.Prefix) (ID, bool) {
	adv, _, ok := s.best(id, prefix)
	return adv, ok
}

// best is the one best-candidate lookup: the advertiser and route of id's
// best route for prefix.
func (s *Server) best(id ID, prefix netip.Prefix) (ID, bgp.Route, bool) {
	prefix = prefix.Masked()
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	sh := s.shardOf(prefix)
	sh.mu.RLock()
	if s.filteredLocked() {
		defer sh.mu.RUnlock()
		return s.computeBestLocked(sh, id, prefix)
	}

	// Fast path: a read lock suffices on a cache hit.
	if pr, hit := sh.pair[prefix]; hit {
		adv, r, ok := derivePairRLocked(sh, prefix, pr, id)
		sh.mu.RUnlock()
		s.mBestCacheHits.Inc()
		return adv, r, ok
	}
	sh.mu.RUnlock()

	// Miss: recompute and fill the cache under the write lock.
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pr, ok := s.pairLocked(sh, prefix)
	if !ok {
		return "", bgp.Route{}, false
	}
	return derivePairRLocked(sh, prefix, pr, id)
}

// derivePairRLocked resolves the cached advertiser pair for one receiver,
// looking the winning route up in the candidate slice. Any shard lock
// (read or write) is held.
func derivePairRLocked(sh *shard, prefix netip.Prefix, pr bestPair, id ID) (ID, bgp.Route, bool) {
	adv := pr.firstID
	if id == pr.firstID {
		adv = pr.secondID
	}
	if adv == "" {
		return "", bgp.Route{}, false
	}
	cands := sh.candidates[prefix]
	if i := findCand(cands, adv); i >= 0 {
		return adv, cands[i].route, true
	}
	return "", bgp.Route{}, false
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
func (s *Server) BestTwoIn(vrf VRF, prefix netip.Prefix) (first, second ID) {
	prefix = prefix.Masked()
	s.partMu.RLock()
	defer s.partMu.RUnlock()
	sh := s.shardOf(prefix)
	if s.vrfActive > 0 {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		s.mBestRecomputations.Inc()
		var inVRF []candRoute
		for _, c := range sh.candidates[prefix] {
			if s.vrfOfLocked(c.id) == vrf {
				inVRF = append(inVRF, c)
			}
		}
		pr := computePair(inVRF)
		return pr.firstID, pr.secondID
	}
	if vrf != "" {
		return "", "" // nobody lives in a named VRF
	}
	sh.mu.RLock()
	if pr, hit := sh.pair[prefix]; hit {
		sh.mu.RUnlock()
		s.mBestCacheHits.Inc()
		return pr.firstID, pr.secondID
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pr, _ := s.pairLocked(sh, prefix)
	return pr.firstID, pr.secondID
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
	var out []netip.Prefix
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for p := range sh.candidates {
			out = append(out, p)
		}
		sh.mu.RUnlock()
	}
	netutil.SortPrefixes(out)
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
		prefix netip.Prefix
		attrs  *bgp.PathAttrs
	}
	var snap []cand
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for prefix, cands := range sh.candidates {
			for _, c := range cands {
				snap = append(snap, cand{prefix, c.route.Attrs})
			}
		}
		sh.mu.RUnlock()
	}
	// With interned attributes a full table holds only a few thousand
	// distinct sets; memoize the regexp verdict per pointer.
	verdicts := make(map[*bgp.PathAttrs]bool)
	var out []netip.Prefix
	seen := make(map[netip.Prefix]bool)
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
	netutil.SortPrefixes(out)
	return out, nil
}
