package experiments

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/faultnet"
	"sdx/internal/replog"
	"sdx/internal/routeserver"
	"sdx/internal/workload"
)

// ClusterResult reports the route-server cluster experiment: live BGP
// sessions terminated by a leader Frontend, which sequences and applies
// every input and fans it into the replicated log, streamed over TCP to
// follower Frontends — one of which loses its stream mid-run and must
// resume from its last applied sequence. The acceptance gates are
// correctness properties, not rates: every follower must drain the log, the
// severed follower must redial, and every participant's Adj-RIB-Out rendered
// by every follower must be byte-identical to the leader's own engine.
// Throughput and lag are reported for the record but not gated — they depend
// on the host, and the cluster's contract is equivalence. ("Worker" in the
// field names is the follower role's old name; the JSON shape is kept.)
type ClusterResult struct {
	Participants int `json:"participants"`
	Workers      int `json:"workers"`
	Prefixes     int `json:"prefixes"`
	Bursts       int `json:"bursts"`
	// Events counts trace events (advertisements + withdrawals) pushed over
	// the BGP sessions; LogEntries is what the frontend appended (UPDATE
	// messages after chunking, plus the victim's flush).
	Events     int    `json:"events"`
	LogEntries uint64 `json:"log_entries"`

	// Ingest covers first send to log-head quiescence; drain is the further
	// wait until every TCP worker has applied the final head.
	IngestSeconds    float64 `json:"ingest_seconds"`
	EntriesPerSec    float64 `json:"log_entries_per_sec"`
	DrainWaitSeconds float64 `json:"drain_wait_seconds"`

	// SeveredWorkerDials is the severed worker's connection count: >= 2
	// proves the resume path ran. MaxFinalLag is the worst per-worker lag
	// after the drain wait (0 when drained_ok).
	SeveredWorkerDials uint64 `json:"severed_worker_dials"`
	MaxFinalLag        uint64 `json:"max_final_lag"`

	// Pass/fail gates (sdx-benchjson -validate requires every *_ok true):
	// all workers applied the full log; the severed worker reconnected at
	// least once; a session death was replicated as a flush entry; every
	// participant's Adj-RIB-Out is byte-identical across every worker and
	// the leader.
	DrainedOK     bool `json:"drained_ok"`
	ResumeOK      bool `json:"resume_ok"`
	FlushOK       bool `json:"flush_ok"`
	EquivalenceOK bool `json:"equivalence_ok"`
}

// Cluster runs the replicated route-server topology end to end. nBursts
// bounds the churn trace; <=0 picks a default sized for a CI smoke run.
func Cluster(cfg Config, nBursts int) (*ClusterResult, error) {
	if nBursts <= 0 {
		nBursts = 150
	}
	const (
		nParticipants = 12
		nWorkers      = 4
	)
	nPrefixes := cfg.scale(600)
	rng := cfg.rng()

	ex := workload.GenerateExchange(rng, nParticipants, nPrefixes)
	// Every replica starts from the same registry and an empty table.
	newEngine := func() (*routeserver.Server, error) {
		rs := routeserver.New(nil)
		for _, m := range ex.Members {
			if err := rs.AddParticipant(m.ID, m.AS); err != nil {
				return nil, err
			}
		}
		return rs, nil
	}

	// Ingest tier: the leader frontend terminating the participants' BGP
	// sessions, its log, and the log's TCP stream server.
	log := replog.NewLog()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	go (&replog.StreamServer{Log: log}).Serve(ln)

	speaker := bgp.NewSpeaker(bgp.SessionConfig{
		LocalAS: 64999,
		LocalID: netip.AddrFrom4([4]byte{10, 255, 255, 254}),
	})
	defer speaker.Close()
	leaderEngine, err := newEngine()
	if err != nil {
		return nil, err
	}
	leader := routeserver.NewFrontend(leaderEngine, speaker)
	leader.Log = log
	for _, m := range ex.Members {
		if err := leader.RegisterPeer(m.Ports[0].RouterIP, m.ID); err != nil {
			return nil, err
		}
	}
	bgpAddr, err := speaker.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	// Follower tier: nWorkers full replicas consuming the log over TCP.
	// Follower 0's first connection is severed mid-stream to force a resume.
	workers := make([]*routeserver.Frontend, nWorkers)
	consumers := make([]*replog.Consumer, nWorkers)
	stop := make(chan struct{})
	defer close(stop)
	severDialer := &faultnet.Dialer{}
	severDialer.Arm = func(fc *faultnet.Conn) {
		if severDialer.Dials() == 0 {
			fc.SeverAfterBytes(4096, -1)
		}
	}
	for i := range workers {
		engine, err := newEngine()
		if err != nil {
			return nil, err
		}
		w := routeserver.NewFrontend(engine, nil)
		workers[i] = w
		c := &replog.Consumer{
			Addr:       ln.Addr().String(),
			Apply:      w.Apply,
			MinBackoff: time.Millisecond,
			MaxBackoff: 10 * time.Millisecond,
		}
		if i == 0 {
			c.Dial = severDialer.Dial
		}
		consumers[i] = c
		go c.Run(stop)
	}

	// Participant border routers: one speaker per member dialed into the
	// frontend. The last member is the victim whose session dies at the end
	// of the run, exercising flush replication.
	clients := make([]*bgp.Speaker, nParticipants)
	peers := make([]*bgp.Peer, nParticipants)
	for i, m := range ex.Members {
		clients[i] = bgp.NewSpeaker(bgp.SessionConfig{LocalAS: m.AS, LocalID: m.Ports[0].RouterIP})
		peer, err := clients[i].Dial(bgpAddr.String())
		if err != nil {
			return nil, fmt.Errorf("dialing member %d: %w", i, err)
		}
		peers[i] = peer
		defer clients[i].Close()
	}
	victim := nParticipants - 1

	rankOf := make(map[netip.Prefix]map[int]int, len(ex.Prefixes))
	for p, anns := range ex.AnnouncersOf {
		m := make(map[int]int, len(anns))
		for rank, mi := range anns {
			m[mi] = rank
		}
		rankOf[p] = m
	}
	bursts := workload.GenerateTrace(rng, ex, workload.DefaultTraceOptions())
	if len(bursts) > nBursts {
		bursts = bursts[:nBursts]
	}

	res := &ClusterResult{
		Participants: nParticipants,
		Workers:      nWorkers,
		Prefixes:     nPrefixes,
		Bursts:       len(bursts),
	}

	// Churn phase: push the whole trace back to back over the sessions,
	// then wait for the log head to quiesce — the frontend has appended
	// everything the sessions delivered.
	start := time.Now()
	for _, b := range bursts {
		sendClusterBurst(ex, peers, rankOf, b.Updates)
		res.Events += len(b.Updates)
	}
	if err := waitHeadStable(log, 30*time.Second); err != nil {
		return nil, err
	}
	res.IngestSeconds = time.Since(start).Seconds()

	// Kill the victim's session: the leader must replicate the loss as a
	// flush entry so every follower drops its routes at the same position.
	preFlushHead := log.Head()
	clients[victim].Close()
	flushDeadline := time.Now().Add(10 * time.Second)
	for !res.FlushOK {
		if h := log.Head(); h > preFlushHead {
			for seq := preFlushHead + 1; seq <= h; seq++ {
				if e, ok := log.Get(seq); ok && e.Kind == replog.KindFlush && e.From == string(ex.Members[victim].ID) {
					res.FlushOK = true
				}
			}
		}
		if res.FlushOK || time.Now().After(flushDeadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	head := log.Head()
	res.LogEntries = head
	if res.IngestSeconds > 0 {
		res.EntriesPerSec = float64(head) / res.IngestSeconds
	}

	// Drain: every follower (including the severed one, post-resume) must
	// reach the final head, and the leader must have finished applying what
	// it appended last.
	drainStart := time.Now()
	drainDeadline := drainStart.Add(30 * time.Second)
	for {
		res.MaxFinalLag = head - leader.Applied()
		for _, c := range consumers {
			if lag := head - c.Applied(); lag > res.MaxFinalLag {
				res.MaxFinalLag = lag
			}
		}
		if res.MaxFinalLag == 0 {
			res.DrainedOK = true
			break
		}
		if time.Now().After(drainDeadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	res.DrainWaitSeconds = time.Since(drainStart).Seconds()
	res.SeveredWorkerDials = uint64(severDialer.Dials())
	res.ResumeOK = res.SeveredWorkerDials >= 2

	// Equivalence: per participant, every follower's canonical Adj-RIB-Out
	// against the leader's own engine.
	res.EquivalenceOK = res.DrainedOK
	for _, id := range leaderEngine.Participants() {
		want, err := routeserver.AdjRIBOut(leaderEngine, id, nil)
		if err != nil {
			return nil, err
		}
		for i, w := range workers {
			got, err := routeserver.AdjRIBOut(w.Server, id, nil)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(want, got) {
				res.EquivalenceOK = false
				cfg.printf("cluster: participant %s: follower %d Adj-RIB-Out differs from the leader (%d vs %d bytes)\n",
					id, i, len(got), len(want))
			}
		}
	}

	cfg.printf("cluster: %d members over live BGP -> log -> %d workers; %d bursts / %d events -> %d log entries\n",
		res.Participants, res.Workers, res.Bursts, res.Events, res.LogEntries)
	cfg.printf("cluster: ingest %.2fs (%.0f entries/s), drain wait %.2fs, severed worker dialed %d times\n",
		res.IngestSeconds, res.EntriesPerSec, res.DrainWaitSeconds, res.SeveredWorkerDials)
	cfg.printf("cluster: gates drained:%v resume:%v flush:%v equivalence:%v\n",
		res.DrainedOK, res.ResumeOK, res.FlushOK, res.EquivalenceOK)

	if !res.DrainedOK || !res.ResumeOK || !res.FlushOK || !res.EquivalenceOK {
		return res, fmt.Errorf("cluster: gate failed (drained:%v resume:%v flush:%v equivalence:%v, final lag %d)",
			res.DrainedOK, res.ResumeOK, res.FlushOK, res.EquivalenceOK, res.MaxFinalLag)
	}
	return res, nil
}

// sendClusterBurst pushes one burst's events over the senders' sessions,
// grouped per member — withdrawals packed together, advertisements grouped
// by identical attribute sets — as a real border router would emit them.
func sendClusterBurst(ex *workload.Exchange, peers []*bgp.Peer, rankOf map[netip.Prefix]map[int]int, events []workload.UpdateEvent) {
	const chunk = 500
	byMember := make(map[int][]workload.UpdateEvent)
	for _, ev := range events {
		byMember[ev.Member] = append(byMember[ev.Member], ev)
	}
	senders := make([]int, 0, len(byMember))
	for mi := range byMember {
		senders = append(senders, mi)
	}
	sort.Ints(senders)
	for _, mi := range senders {
		var withdrawn []netip.Prefix
		byRank := make(map[int][]netip.Prefix)
		for _, ev := range byMember[mi] {
			if ev.Withdraw {
				withdrawn = append(withdrawn, ev.Prefix)
			} else {
				byRank[rankOf[ev.Prefix][mi]] = append(byRank[rankOf[ev.Prefix][mi]], ev.Prefix)
			}
		}
		for len(withdrawn) > 0 {
			n := min(len(withdrawn), chunk)
			peers[mi].Send(&bgp.Update{Withdrawn: withdrawn[:n]})
			withdrawn = withdrawn[n:]
		}
		ranks := make([]int, 0, len(byRank))
		for r := range byRank {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		for _, rank := range ranks {
			nlri := byRank[rank]
			attrs := *ex.RouteFor(mi, nlri[0], rank).Attrs
			for len(nlri) > 0 {
				n := min(len(nlri), chunk)
				peers[mi].Send(&bgp.Update{Attrs: attrs, NLRI: nlri[:n]})
				nlri = nlri[n:]
			}
		}
	}
}

// waitHeadStable blocks until the log head stops moving: the sessions'
// in-flight UPDATEs have all been appended.
func waitHeadStable(log *replog.Log, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	last := log.Head()
	stableSince := time.Now()
	for {
		time.Sleep(25 * time.Millisecond)
		cur := log.Head()
		if cur != last {
			last, stableSince = cur, time.Now()
		} else if time.Since(stableSince) > 250*time.Millisecond {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: log head did not quiesce within %v", timeout)
		}
	}
}
