// Cluster mode: the route server split into a thin BGP frontend and N
// worker processes fed the same sequenced UPDATE log (internal/replog).
//
// The decision process is deterministic (PR 5), so replication is plain
// state-machine replication: every worker replays the full log into its
// own private Server — the whole table is needed to compute any receiver's
// best routes — and *shard ownership* only partitions responsibility for
// emission and serving. ShardOf hashes participants across workers;
// AdjRIBOut renders a participant's table in canonical packed wire form so
// the equivalence property test can compare a worker byte-for-byte against
// the single-process server.
package routeserver

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"sync"

	"sdx/internal/bgp"
	"sdx/internal/replog"
	"sdx/internal/telemetry"
)

// ShardOf maps a participant to its owning worker index in an n-worker
// cluster: FNV-1a over the participant ID, mod n. Stable across processes
// and restarts — shard assignment is pure configuration.
func ShardOf(id ID, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(n))
}

// ClusterParticipant is one registry row shared by the frontend and every
// worker: cluster members must agree on the participant set, since apply
// determinism depends on identical registries.
type ClusterParticipant struct {
	ID ID
	AS uint32
}

// Worker is one route-server worker process: a full replica of the engine
// plus ownership of one participant shard. It applies replog entries in
// sequence order (the Consumer guarantees single-goroutine, in-order
// delivery).
type Worker struct {
	Server *Server
	Index  int
	Count  int

	mApplied telemetry.Counter
}

// NewWorker builds worker index of count, registering every participant —
// the engine needs the full table; the shard only scopes what this worker
// serves.
func NewWorker(index, count int, parts []ClusterParticipant) (*Worker, error) {
	if count < 1 || index < 0 || index >= count {
		return nil, fmt.Errorf("routeserver: worker %d of %d out of range", index, count)
	}
	w := &Worker{Server: New(nil), Index: index, Count: count}
	for _, p := range parts {
		if err := w.Server.AddParticipant(p.ID, p.AS); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Owns reports whether this worker's shard contains the participant.
func (w *Worker) Owns(id ID) bool { return ShardOf(id, w.Count) == w.Index }

// OwnedParticipants returns the participants in this worker's shard.
func (w *Worker) OwnedParticipants() []ID {
	var out []ID
	for _, id := range w.Server.Participants() {
		if w.Owns(id) {
			out = append(out, id)
		}
	}
	return out
}

// Apply replays one log entry into the engine, mirroring exactly what
// Frontend.onUpdate / onDown do in the single-process topology — the
// byte-identical Adj-RIB-Out guarantee depends on this correspondence.
func (w *Worker) Apply(e *replog.Entry) error {
	switch e.Kind {
	case replog.KindUpdate:
		routes := RoutesFromUpdate(e.Update, e.PeerAS, e.PeerID)
		if _, err := w.Server.ApplyUpdateTouched(ID(e.From), e.Update.Withdrawn, routes); err != nil {
			return err
		}
	case replog.KindFlush:
		w.Server.FlushParticipant(ID(e.From))
	case replog.KindMark:
		// Compile points concern controller replicas, not bare workers.
	default:
		return fmt.Errorf("routeserver: unknown log entry kind %d", e.Kind)
	}
	w.mApplied.Inc()
	return nil
}

// EnableTelemetry registers the worker's shard metrics with reg. A nil
// registry is a no-op.
func (w *Worker) EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("sdx_routeserver_worker_applied_total",
		"Replicated log entries applied by this worker.",
		func() float64 { return float64(w.mApplied.Value()) })
	reg.GaugeFunc("sdx_routeserver_shard_size",
		"Participants in this worker's shard.",
		func() float64 { return float64(len(w.OwnedParticipants())) })
	reg.GaugeFunc("sdx_routeserver_shard_index",
		"This worker's shard index.",
		func() float64 { return float64(w.Index) })
}

// AdjRIBOut renders participant id's Adj-RIB-Out from s in canonical wire
// form: best routes for every prefix (sorted), packed into RFC 4271
// UPDATEs by bgp.PackUpdates, marshalled with 4-octet AS_PATH segments,
// concatenated. Two engines in identical logical state produce identical
// bytes — the cluster equivalence property.
func AdjRIBOut(s *Server, id ID, resolve NextHopResolver) ([]byte, error) {
	var adverts []bgp.Advertisement
	for _, prefix := range s.Prefixes() {
		best, ok := s.BestFor(id, prefix)
		if !ok {
			continue
		}
		attrs := *best.Attrs
		if resolve != nil {
			if nh := resolve(id, prefix, best); nh.IsValid() {
				attrs = attrs.WithNextHop(nh)
			}
		}
		adverts = append(adverts, bgp.Advertisement{Prefix: prefix, Attrs: attrs})
	}
	msgs, err := bgp.PackUpdates(nil, adverts)
	if err != nil {
		return nil, err
	}
	var out []byte
	for _, m := range msgs {
		b, err := bgp.MarshalAS4(m)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	return out, nil
}

// LogFrontend is the thin ingest tier of the cluster topology: it
// terminates participant BGP sessions and fans every UPDATE into the
// replicated log, owning no routing state at all. Session hygiene matches
// the in-process Frontend: unknown or deprovisioned peers are refused with
// a NOTIFICATION (Cease), and a dead session appends a flush entry so
// every worker drops the participant's routes at the same log position.
type LogFrontend struct {
	Log     *replog.Log
	Speaker *bgp.Speaker
	// Tracer receives rejection events; defaults to the no-op tracer.
	Tracer *telemetry.Tracer

	mu      sync.Mutex
	byBGPID map[netip.Addr]ID
	peers   map[ID]*bgp.Peer

	mRejected telemetry.Counter
}

// NewLogFrontend wires the speaker's callbacks into the log.
func NewLogFrontend(log *replog.Log, speaker *bgp.Speaker) *LogFrontend {
	lf := &LogFrontend{
		Log:     log,
		Speaker: speaker,
		byBGPID: make(map[netip.Addr]ID),
		peers:   make(map[ID]*bgp.Peer),
	}
	speaker.OnEstablished = lf.onEstablished
	speaker.OnUpdate = lf.onUpdate
	speaker.OnDown = lf.onDown
	return lf
}

// RegisterPeer maps a BGP identifier to a participant, mirroring
// Frontend.RegisterPeer. The frontend carries no engine, so the
// participant registry is this map alone — keep it in lockstep with the
// workers' ClusterParticipant lists.
func (lf *LogFrontend) RegisterPeer(bgpID netip.Addr, participant ID) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	lf.byBGPID[bgpID] = participant
}

// DeregisterPeer removes a BGP identifier (participant deprovisioning).
// An established session for it is refused at its next UPDATE.
func (lf *LogFrontend) DeregisterPeer(bgpID netip.Addr) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	delete(lf.byBGPID, bgpID)
}

// Rejected returns how many UPDATEs were refused and answered with Cease.
func (lf *LogFrontend) Rejected() uint64 { return lf.mRejected.Value() }

func (lf *LogFrontend) participantFor(p *bgp.Peer) (ID, bool) {
	lf.mu.Lock()
	defer lf.mu.Unlock()
	id, ok := lf.byBGPID[p.Session.PeerID()]
	return id, ok
}

func (lf *LogFrontend) onEstablished(p *bgp.Peer) {
	id, ok := lf.participantFor(p)
	if !ok {
		p.Session.CloseCease(bgp.CeaseDeconfigured)
		return
	}
	lf.mu.Lock()
	lf.peers[id] = p
	lf.mu.Unlock()
}

func (lf *LogFrontend) onUpdate(p *bgp.Peer, u *bgp.Update) {
	id, ok := lf.participantFor(p)
	if !ok {
		// Same hygiene as Frontend.rejectUpdate: count, trace, Cease.
		lf.mRejected.Inc()
		lf.Tracer.Emit("replog.update_rejected",
			telemetry.Str("peer", p.Session.PeerID().String()),
			telemetry.Int("nlri", len(u.NLRI)))
		p.Session.CloseCease(bgp.CeaseDeconfigured)
		return
	}
	lf.Log.AppendUpdate(string(id), p.Session.PeerAS(), p.Session.PeerID(), u)
}

func (lf *LogFrontend) onDown(p *bgp.Peer, _ error) {
	id, ok := lf.participantFor(p)
	if !ok {
		return
	}
	lf.mu.Lock()
	current := lf.peers[id] == p
	if current {
		delete(lf.peers, id)
	}
	lf.mu.Unlock()
	if !current {
		return // displaced by a fresh session; its routes live on
	}
	if live, ok := lf.Speaker.Peer(p.Key()); ok && live != p {
		return // speaker-level displacement, seen earlier than ours
	}
	lf.Log.AppendFlush(string(id))
}

// EnableTelemetry registers the log frontend's metrics with reg. A nil
// registry is a no-op.
func (lf *LogFrontend) EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("sdx_routeserver_rejected_updates_total",
		"Inbound UPDATEs refused and answered with Cease (unknown participant).",
		func() float64 { return float64(lf.mRejected.Value()) })
}
