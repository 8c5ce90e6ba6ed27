package routeserver

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"

	"sdx/internal/bgp"
	"sdx/internal/replog"
	"sdx/internal/telemetry"
)

// NextHopResolver maps a best route to the next-hop address the route
// server should advertise to a receiving participant. The SDX controller
// supplies one that returns virtual next hops (VNHs); nil keeps the
// original next hop, which is plain route-server behaviour.
type NextHopResolver func(receiver ID, prefix netip.Prefix, route bgp.Route) netip.Addr

// OwnershipChecker verifies that a participant owns a prefix before the SDX
// originates it (the paper's RPKI check for the load-balancing application).
type OwnershipChecker func(participant ID, prefix netip.Prefix) bool

// Frontend is the one place an input is sequenced and applied: every
// session UPDATE, session death, originated route and compile point becomes
// a replog.Entry, gets the next sequence number, and runs through the one
// apply — engine mutation, then the controller's reaction, then
// re-advertisement with rewritten next hops. Every deployment role is an
// instance of it: a leader has live BGP sessions (and a Log when followers
// replicate it); a follower is NewFrontend(server, nil) fed the leader's
// entries through Apply.
//
// Ordering. One mutex covers sequence, apply and reaction, so entries take
// effect one at a time in sequence order: two sessions' UPDATEs never
// interleave between an engine mutation and its reaction, and a compile
// point sees exactly the entries sequenced before it — which is what lets a
// follower replaying the same entries reach the same state. Session reads
// therefore stall while a compile point runs. Emission stays outside that
// mutex, serialized per RECEIVING peer: every re-advertisement re-reads the
// engine's current best route under the receiver's emit lock before being
// sent, so whichever emission runs last for a receiver carries the freshest
// decision. Emissions pack NLRI sharing identical attributes into minimal
// UPDATE messages (RFC 4271).
type Frontend struct {
	Server  *Server
	Speaker *bgp.Speaker

	// NextHop, when set, rewrites advertised next hops (VNH installation).
	NextHop NextHopResolver
	// OnPrefixes, when set, is invoked with the touched prefixes of each
	// update or flush entry BEFORE they are re-advertised (the paper's §5.1
	// ordering: the policy compiler computes fresh virtual next hops
	// first). It feeds Controller.FastReact. Like OnMark it runs under the
	// sequencing mutex, so it must not submit input (Originate, Mark).
	OnPrefixes func([]netip.Prefix)
	// OnMark, when set, is invoked at each compile point (the background
	// stage: full compilation and base-table commit) before every route is
	// re-advertised.
	OnMark func()
	// Log, when set, receives every entry at the moment it is sequenced, for
	// followers to replay. It is fan-out only: the same apply runs here with
	// or without it.
	Log *replog.Log
	// Ownership gates Originate; nil allows everything (test/demo mode).
	Ownership OwnershipChecker
	// Logf, when set, receives one line per rejected UPDATE and per
	// re-advertisement that could not be packed.
	Logf func(format string, args ...any)

	mu      sync.Mutex
	byBGPID map[netip.Addr]ID
	peers   map[ID]*bgp.Peer
	// adjOut tracks what has been advertised to each participant, so
	// withdrawals are only sent for routes the peer actually holds.
	adjOut map[ID]map[netip.Prefix]bool
	// emitLocks serializes emission per receiving peer; entries are
	// created lazily and never removed (a participant's lock survives its
	// session, so a displaced session and its replacement contend on the
	// same lock).
	emitLocks map[ID]*sync.Mutex
	// emitters holds one live coalescing emitter per connected peer.
	emitters map[ID]*peerEmitter

	// seqMu orders input: an entry's sequence number, its apply and its
	// reaction happen under it, atomically with respect to every other entry.
	seqMu   sync.Mutex
	applied atomic.Uint64 // written under seqMu

	// Intrusive instruments, exported via EnableTelemetry.
	mUpdatesOut      telemetry.Counter
	mWithdrawalsOut  telemetry.Counter
	mMessagesOut     telemetry.Counter
	mRejectedUpdates telemetry.Counter
}

// NewFrontend wires a Server to a Speaker. The Speaker's callbacks are
// installed here, so create the Frontend before any session is accepted. A
// nil speaker makes a follower: no sessions, input arrives through Apply.
func NewFrontend(server *Server, speaker *bgp.Speaker) *Frontend {
	f := &Frontend{
		Server:    server,
		Speaker:   speaker,
		byBGPID:   make(map[netip.Addr]ID),
		peers:     make(map[ID]*bgp.Peer),
		adjOut:    make(map[ID]map[netip.Prefix]bool),
		emitLocks: make(map[ID]*sync.Mutex),
		emitters:  make(map[ID]*peerEmitter),
	}
	if speaker != nil {
		speaker.OnEstablished = f.onEstablished
		speaker.OnUpdate = f.onUpdate
		speaker.OnDown = f.onDown
	}
	return f
}

// RegisterPeer associates a router's BGP identifier with a participant, so
// that sessions from that router feed the participant's Adj-RIB-In. The
// participant must already exist in the Server.
func (f *Frontend) RegisterPeer(bgpID netip.Addr, participant ID) error {
	if _, ok := f.Server.AS(participant); !ok {
		return fmt.Errorf("routeserver: participant %q not registered with the server", participant)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.byBGPID[bgpID] = participant
	return nil
}

func (f *Frontend) participantFor(p *bgp.Peer) (ID, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id, ok := f.byBGPID[p.Session.PeerID()]
	return id, ok
}

// emitLock returns the participant's emission lock, creating it on first
// use.
func (f *Frontend) emitLock(id ID) *sync.Mutex {
	f.mu.Lock()
	defer f.mu.Unlock()
	l := f.emitLocks[id]
	if l == nil {
		l = new(sync.Mutex)
		f.emitLocks[id] = l
	}
	return l
}

func (f *Frontend) onEstablished(p *bgp.Peer) {
	id, ok := f.participantFor(p)
	if !ok {
		p.Session.CloseCease(bgp.CeaseDeconfigured) // unknown router; an IXP would alarm here
		return
	}
	e := &peerEmitter{
		id:      id,
		peer:    p,
		lock:    f.emitLock(id),
		pending: make(map[netip.Prefix]bool),
		wake:    make(chan struct{}, 1),
	}
	f.mu.Lock()
	f.peers[id] = p
	// Registering the emitter before the dump means changes landing during
	// the dump queue on it and are re-emitted once its goroutine starts.
	f.emitters[id] = e
	f.mu.Unlock()

	// Late joiner: advertise the current best route for every prefix, as
	// packed UPDATEs, under the peer's emit lock so in-flight
	// re-advertisements cannot interleave with the dump. Each BestFor
	// re-reads the live decision, so routes that change while the dump is
	// being assembled are re-emitted by their own change's propagation
	// afterwards — the dump can be momentarily stale but never finally so.
	e.lock.Lock()
	f.mu.Lock()
	f.adjOut[id] = make(map[netip.Prefix]bool)
	f.mu.Unlock()
	var adverts []bgp.Advertisement
	for _, prefix := range f.Server.Prefixes() {
		if best, ok := f.Server.BestFor(id, prefix); ok {
			adverts = append(adverts, bgp.Advertisement{Prefix: prefix, Attrs: f.resolveAttrs(id, prefix, best)})
			f.recordSent(id, prefix, true)
		}
	}
	f.sendPacked(id, p, nil, adverts)
	e.lock.Unlock()
	go f.runEmitter(e)
}

// recordSent updates the Adj-RIB-Out bookkeeping for one peer.
func (f *Frontend) recordSent(id ID, prefix netip.Prefix, present bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.adjOut[id]
	if m == nil {
		m = make(map[netip.Prefix]bool)
		f.adjOut[id] = m
	}
	if present {
		m[prefix] = true
	} else {
		delete(m, prefix)
	}
}

// hasSent reports whether the peer currently holds an advertisement.
func (f *Frontend) hasSent(id ID, prefix netip.Prefix) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.adjOut[id][prefix]
}

func (f *Frontend) onDown(p *bgp.Peer, _ error) {
	id, ok := f.participantFor(p)
	if !ok {
		return
	}
	f.mu.Lock()
	current := f.peers[id] == p
	if current {
		delete(f.peers, id)
		// The peer's RIB died with its session; a reconnecting router
		// starts from an empty table and is re-fed by onEstablished.
		delete(f.adjOut, id)
		if e := f.emitters[id]; e != nil && e.peer == p {
			delete(f.emitters, id)
		}
	}
	f.mu.Unlock()
	if !current {
		// A displaced session (the peer reconnected and the fresh session
		// already replaced this one) — the live routes belong to the
		// replacement, so there is nothing to flush.
		return
	}
	if live, ok := f.Speaker.Peer(p.Key()); ok && live != p {
		// Same displacement seen earlier than our own bookkeeping: the
		// speaker installs the replacement in its peer map before closing
		// the old session, so this check is race-free even when the old
		// session's teardown outruns the replacement's onEstablished.
		return
	}
	// Flush the downed participant's routes from the engine and recompute
	// best routes: the fabric keeps forwarding on installed rules, but new
	// best-route decisions must stop preferring a next hop that can no
	// longer speak for itself. A refusal means the participant was
	// deprovisioned under its session (RemoveParticipant already withdrew
	// its routes) or the log closed at shutdown.
	_ = f.submit(&replog.Entry{Kind: replog.KindFlush, From: string(id)})
}

func (f *Frontend) onUpdate(p *bgp.Peer, u *bgp.Update) {
	id, ok := f.participantFor(p)
	if !ok {
		// No participant behind this session (it raced deprovisioning, or
		// the registry changed under an established peer): every further
		// UPDATE would stream into a black hole. Reject and tear down.
		f.rejectUpdate("", p, u, errUnknownParticipant)
		return
	}
	err := f.submit(&replog.Entry{
		Kind: replog.KindUpdate, From: string(id),
		PeerAS: p.Session.PeerAS(), PeerID: p.Session.PeerID(), Update: u,
	})
	if err != nil {
		f.rejectUpdate(id, p, u, err)
	}
}

// submit sequences one input and applies it. An entry no follower could
// apply (its participant is not registered) is refused BEFORE it gets a
// sequence number, so it never reaches the log. The sequence number is the
// Log's when one is attached for followers, applied+1 otherwise.
func (f *Frontend) submit(e *replog.Entry) error {
	f.seqMu.Lock()
	defer f.seqMu.Unlock()
	if e.Kind != replog.KindMark {
		if _, ok := f.Server.AS(ID(e.From)); !ok {
			return fmt.Errorf("routeserver: unknown participant %q", e.From)
		}
	}
	if f.Log == nil {
		e.Seq = f.applied.Load() + 1
	} else if f.Log.Append(e) == 0 {
		return errors.New("routeserver: replicated log is closed")
	}
	return f.apply(e)
}

// Apply applies one entry sequenced elsewhere — the follower's input path,
// with the contract replog.Consumer provides: entries arrive in sequence
// order. An error means this replica can no longer mirror its leader.
func (f *Frontend) Apply(e *replog.Entry) error {
	f.seqMu.Lock()
	defer f.seqMu.Unlock()
	return f.apply(e)
}

// apply is the one transition function, run by leader and follower alike.
// Caller holds seqMu.
func (f *Frontend) apply(e *replog.Entry) error {
	switch e.Kind {
	case replog.KindUpdate:
		routes := RoutesFromUpdate(e.Update, e.PeerAS, e.PeerID)
		touched, err := f.Server.ApplyUpdateTouched(ID(e.From), e.Update.Withdrawn, routes)
		if err != nil {
			return fmt.Errorf("routeserver: applying log seq %d: %w", e.Seq, err)
		}
		f.propagatePrefixes(touched)
	case replog.KindFlush:
		f.propagatePrefixes(f.Server.FlushParticipant(ID(e.From)))
	case replog.KindMark:
		if f.OnMark != nil {
			f.OnMark()
		}
		f.ReadvertiseAll()
	default:
		return fmt.Errorf("routeserver: unknown log entry kind %d at seq %d", e.Kind, e.Seq)
	}
	f.applied.Store(e.Seq)
	return nil
}

// Mark sequences a compile point: OnMark runs with exactly the entries
// before it applied, here and at the same position on every follower.
func (f *Frontend) Mark() error {
	return f.submit(&replog.Entry{Kind: replog.KindMark})
}

// Applied returns the sequence number of the last applied entry.
func (f *Frontend) Applied() uint64 { return f.applied.Load() }

// errUnknownParticipant is the rejection cause when an established session
// has no participant behind it anymore.
var errUnknownParticipant = errors.New("no participant registered for session")

// rejectUpdate records an update the server refused and tears the session
// down: a rejected update must not vanish silently — count it and log a
// line naming the peer — and a session whose routes the engine refuses
// must not stay established, or the peer (e.g. one racing its
// participant's deprovisioning) keeps streaming routes into a black hole
// while believing them accepted. Close sends a NOTIFICATION (Cease) and
// the teardown flows through onDown, flushing anything the participant
// had previously placed in the engine.
func (f *Frontend) rejectUpdate(id ID, p *bgp.Peer, u *bgp.Update, err error) {
	f.mRejectedUpdates.Inc()
	f.logf("routeserver: rejected UPDATE from participant %s (peer %v, %d NLRI, %d withdrawn): %v",
		id, p.Session.PeerID(), len(u.NLRI), len(u.Withdrawn), err)
	p.Session.CloseCease(bgp.CeaseDeconfigured)
}

func (f *Frontend) logf(format string, args ...any) {
	if f.Logf != nil {
		f.Logf(format, args...)
	}
}

// originPeerID synthesizes a deterministic router identifier for routes the
// SDX originates on behalf of a participant with no physical router at the
// exchange. Without one, two originated routes for the same prefix tie on
// every decision step with zero PeerIDs, and selection would hinge on map
// iteration order. The 100.64.0.0/10 (CGN) range cannot collide with a
// participant router's LAN address; the low 22 bits of the ASN keep
// 4-octet ASNs distinct within the deployment sizes the SDX targets.
func originPeerID(as uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{100, 64 | byte(as>>16&0x3f), byte(as >> 8), byte(as)})
}

// Originate injects a route on behalf of a participant that may have no
// physical router at the exchange — the paper's remote wide-area
// load-balancing participant. The ownership check gates it.
func (f *Frontend) Originate(participant ID, prefix netip.Prefix, nextHop netip.Addr) error {
	if f.Ownership != nil && !f.Ownership(participant, prefix) {
		return fmt.Errorf("routeserver: %q does not own %v", participant, prefix)
	}
	as, ok := f.Server.AS(participant)
	if !ok {
		return fmt.Errorf("routeserver: unknown participant %q", participant)
	}
	return f.submit(&replog.Entry{
		Kind: replog.KindUpdate, From: string(participant),
		PeerAS: as, PeerID: originPeerID(as),
		Update: &bgp.Update{
			Attrs: bgp.PathAttrs{
				Origin:  bgp.OriginIGP,
				ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{as}}},
				NextHop: nextHop,
			},
			NLRI: []netip.Prefix{prefix},
		},
	})
}

// WithdrawOrigin retracts a route previously injected with Originate.
func (f *Frontend) WithdrawOrigin(participant ID, prefix netip.Prefix) error {
	as, _ := f.Server.AS(participant) // submit refuses an unknown participant
	return f.submit(&replog.Entry{
		Kind: replog.KindUpdate, From: string(participant),
		PeerAS: as, PeerID: originPeerID(as),
		Update: &bgp.Update{Withdrawn: []netip.Prefix{prefix}},
	})
}

// peerEmitter coalesces re-advertisement work for one receiving peer. Route
// changes enqueue the affected prefixes into a pending set; a dedicated
// goroutine drains the whole set at once, re-reads the engine's best route
// for each prefix, and sends one packed batch. Prefixes touched many times
// while the emitter is busy are emitted once with the freshest decision —
// batching across senders is what lets RFC 4271 packing collapse the
// message count under churn.
type peerEmitter struct {
	id   ID
	peer *bgp.Peer
	lock *sync.Mutex // shared per-participant emit lock

	mu      sync.Mutex
	pending map[netip.Prefix]bool
	wake    chan struct{} // capacity 1: a retained signal per drain
}

// enqueue adds prefixes to the pending set and nudges the drain goroutine.
func (e *peerEmitter) enqueue(prefixes []netip.Prefix) {
	e.mu.Lock()
	for _, p := range prefixes {
		e.pending[p] = true
	}
	e.mu.Unlock()
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// take removes and returns the whole pending set, sorted for deterministic
// emission, or nil if there is nothing to do.
func (e *peerEmitter) take() []netip.Prefix {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.pending) == 0 {
		return nil
	}
	out := make([]netip.Prefix, 0, len(e.pending))
	for p := range e.pending {
		out = append(out, p)
		delete(e.pending, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr().Less(out[j].Addr()) })
	return out
}

// runEmitter is the per-peer drain loop. It exits when the session dies;
// a displaced emitter (the participant reconnected and onEstablished
// installed a replacement) also stops touching the shared Adj-RIB-Out.
func (f *Frontend) runEmitter(e *peerEmitter) {
	for {
		select {
		case <-e.peer.Session.Done():
			return
		case <-e.wake:
		}
		for {
			// Check displacement BEFORE draining: a displaced emitter that
			// drains first throws away prefixes its successor will never
			// see again (the successor's initial dump may already have run
			// against a next-hop mapping that has since moved).
			if f.displaced(e) {
				f.handoffPending(e)
				return
			}
			prefixes := e.take()
			if len(prefixes) == 0 {
				break
			}
			// Re-check after the drain: displacement between the check and
			// take() would otherwise lose exactly the drained set. Hand it
			// to the successor, which re-reads BestFor under its own emit
			// lock at drain time.
			if f.displaced(e) {
				if succ := f.successor(e); succ != nil {
					succ.enqueue(prefixes)
				}
				return
			}
			f.emitPrefixes(e, prefixes)
		}
	}
}

// displaced reports whether e is no longer the participant's live emitter.
func (f *Frontend) displaced(e *peerEmitter) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.emitters[e.id] != e
}

// successor returns the emitter that replaced e, or nil if the participant
// has none (session down with no replacement — the routes die with it, and
// a future reconnect gets the full dump).
func (f *Frontend) successor(e *peerEmitter) *peerEmitter {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.emitters[e.id]; s != e {
		return s
	}
	return nil
}

// handoffPending transfers a displaced emitter's undrained pending set to
// its successor.
func (f *Frontend) handoffPending(e *peerEmitter) {
	prefixes := e.take()
	if len(prefixes) == 0 {
		return
	}
	if succ := f.successor(e); succ != nil {
		succ.enqueue(prefixes)
	}
}

// connectedEmitters snapshots the live per-peer emitters.
func (f *Frontend) connectedEmitters() []*peerEmitter {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*peerEmitter, 0, len(f.emitters))
	for _, e := range f.emitters {
		out = append(out, e)
	}
	return out
}

// propagatePrefixes hands the touched prefixes to the controller FIRST —
// the paper's §5.1 ordering: the policy compiler computes fresh virtual next
// hops and forwarding rules, "then sends the updated next-hop information to
// the route server, which marshals the corresponding BGP updates" — and then
// re-advertises each of them through the NextHop resolver. A change to a
// prefix's candidate routes can move its VIRTUAL next hop for every
// participant, not only those whose best path flipped: the fast path mints a
// fresh VNH for the prefix, and a next-hop change is a BGP UPDATE even when
// the AS path is unchanged. So each touched prefix is re-advertised to every
// connected participant. Caller holds seqMu.
func (f *Frontend) propagatePrefixes(prefixes []netip.Prefix) {
	if len(prefixes) == 0 {
		return
	}
	if f.OnPrefixes != nil {
		f.OnPrefixes(prefixes)
	}
	for _, e := range f.connectedEmitters() {
		e.enqueue(prefixes)
	}
}

// emitPrefixes re-reads the current best route for each prefix and sends
// the receiver one packed batch of advertisements and withdrawals. The
// whole read-decide-send sequence runs under the receiver's emit lock:
// concurrent emissions for the same receiver serialize, and each one
// re-reads the engine state, so the last writer is always the freshest.
func (f *Frontend) emitPrefixes(e *peerEmitter, prefixes []netip.Prefix) {
	e.lock.Lock()
	defer e.lock.Unlock()
	var withdrawn []netip.Prefix
	adverts := make([]bgp.Advertisement, 0, len(prefixes))
	for _, prefix := range prefixes {
		if best, ok := f.Server.BestFor(e.id, prefix); ok {
			adverts = append(adverts, bgp.Advertisement{Prefix: prefix, Attrs: f.resolveAttrs(e.id, prefix, best)})
			f.recordSent(e.id, prefix, true)
		} else if f.hasSent(e.id, prefix) {
			withdrawn = append(withdrawn, prefix)
			f.recordSent(e.id, prefix, false)
		}
	}
	f.sendPacked(e.id, e.peer, withdrawn, adverts)
}

// sendPacked packs one receiver's withdrawals and advertisements into
// minimal UPDATE messages and sends them. Caller holds the emit lock.
func (f *Frontend) sendPacked(id ID, peer *bgp.Peer, withdrawn []netip.Prefix, adverts []bgp.Advertisement) {
	if len(withdrawn) == 0 && len(adverts) == 0 {
		return
	}
	msgs, err := bgp.PackUpdates(withdrawn, adverts)
	if err != nil {
		// Unpackable output (non-IPv4 NLRI, oversized attribute set)
		// cannot come from routes the engine accepted; log and drop
		// rather than crash the session goroutine.
		f.logf("routeserver: packing UPDATEs for participant %s: %v", id, err)
		return
	}
	for _, u := range msgs {
		peer.Send(u)
		f.mMessagesOut.Inc()
	}
	f.mUpdatesOut.Add(uint64(len(adverts)))
	f.mWithdrawalsOut.Add(uint64(len(withdrawn)))
}

// resolveAttrs applies the NextHop resolver to one advertisement.
func (f *Frontend) resolveAttrs(receiver ID, prefix netip.Prefix, best bgp.Route) bgp.PathAttrs {
	var attrs bgp.PathAttrs
	if best.Attrs != nil {
		attrs = *best.Attrs // value copy: the interned set stays immutable
	}
	if f.NextHop != nil {
		if nh := f.NextHop(receiver, prefix, best); nh.IsValid() {
			attrs = attrs.WithNextHop(nh)
		}
	}
	return attrs
}

// ReadvertiseAll re-sends the current best route for every prefix to every
// connected participant, applying the NextHop resolver afresh, packed into
// minimal UPDATEs. Every compile point ends with it, so participants whose
// virtual next hops moved pick up the new mapping; participants whose routes
// are byte-identical simply refresh their RIBs (BGP updates are idempotent).
func (f *Frontend) ReadvertiseAll() {
	prefixes := f.Server.Prefixes()
	for _, e := range f.connectedEmitters() {
		e.enqueue(prefixes)
	}
}
