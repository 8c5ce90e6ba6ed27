package main

// Control-plane workloads: the two that drive BGP through the whole stack
// (burst_converge, churn_sustained), the one that exercises the compiler and
// the OpenFlow push alone (policy_recompile), and the one that exercises the
// BGP codec and route server alone (rib_ingest).

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"strings"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/netutil"
	"sdx/internal/packet"
	"sdx/internal/policy"
	"sdx/internal/routeserver"
	"sdx/internal/telemetry"
	"sdx/internal/workload"
)

// senderTrace is the Table-1-calibrated burst trace (workload.GenerateTrace)
// remapped onto the sender session: the generator runs over a view of the
// exchange holding only the sender's announcements, so every event is one the
// sender's border router could emit. Sizes are capped at sz.burstCap.
//
// The population of bursts is generated once, from the exchange's fixed
// seed; --seed decides the order they arrive in. Which 12 % of the sender's
// prefixes ever change decides how many reachability signatures the
// fast-path memo has to learn, and that — a property of the exchange, like
// its policy mix — should not differ between two runs being compared.
func senderTrace(seed int64, ex *workload.Exchange, sz sizes) []workload.Burst {
	announced := ex.Members[senderMember].Announced
	view := &workload.Exchange{
		Members:      ex.Members,
		Prefixes:     announced,
		AnnouncersOf: make(map[netip.Prefix][]int, len(announced)),
	}
	for _, p := range announced {
		view.AnnouncersOf[p] = []int{senderMember}
	}
	bursts := workload.GenerateTrace(rand.New(rand.NewSource(topologySeed)), view, workload.DefaultTraceOptions())
	for i := range bursts {
		if len(bursts[i].Updates) > sz.burstCap {
			bursts[i].Updates = bursts[i].Updates[:sz.burstCap]
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(bursts), func(i, j int) { bursts[i], bursts[j] = bursts[j], bursts[i] })
	return bursts
}

func hashBursts(h hash.Hash, bursts []workload.Burst) {
	for _, b := range bursts {
		fmt.Fprintf(h, "burst %d\n", len(b.Updates))
		for _, ev := range b.Updates {
			fmt.Fprintf(h, "%v %v\n", ev.Prefix, ev.Withdraw)
		}
	}
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// senderRouter is the sender's border router: it turns trace events into the
// UPDATE messages a router would emit (withdrawals packed together,
// advertisements grouped by attribute set — bgp.PackUpdates), remembering
// what it has announced. A re-advertisement alternates the AS-path length
// between the sender's natural rank and two hops longer, so best paths
// genuinely flip between the sender and the prefix's other announcers.
type senderRouter struct {
	ex      *workload.Exchange
	natural map[netip.Prefix]int // sender's rank among the prefix's announcers
	rank    map[netip.Prefix]int // rank last advertised
	sent    []*bgp.Update        // traced runs keep what was sent for layer replay
	record  bool
}

func newSenderRouter(ex *workload.Exchange, record bool) *senderRouter {
	r := &senderRouter{ex: ex, natural: make(map[netip.Prefix]int), rank: make(map[netip.Prefix]int), record: record}
	for _, p := range ex.Members[senderMember].Announced {
		r.natural[p] = slices.Index(ex.AnnouncersOf[p], senderMember)
	}
	return r
}

func (r *senderRouter) updates(events []workload.UpdateEvent) ([]*bgp.Update, error) {
	var withdrawn []netip.Prefix
	var adverts []bgp.Advertisement
	for _, ev := range events {
		if ev.Withdraw {
			withdrawn = append(withdrawn, ev.Prefix)
			continue
		}
		nat := r.natural[ev.Prefix]
		last, ok := r.rank[ev.Prefix]
		next := nat + 2
		if ok && last != nat {
			next = nat
		}
		r.rank[ev.Prefix] = next
		adverts = append(adverts, bgp.Advertisement{
			Prefix: ev.Prefix,
			Attrs:  *r.ex.RouteFor(senderMember, ev.Prefix, next).Attrs,
		})
	}
	msgs, err := bgp.PackUpdates(withdrawn, adverts)
	if r.record {
		r.sent = append(r.sent, msgs...)
	}
	return msgs, err
}

// probe is one data-plane check: a frame, where it enters, and the ports the
// reference classifier says it must leave on.
type probe struct {
	inPort uint16
	key    policy.Packet
	frame  []byte
}

func udpProbe(inPort uint16, srcMAC, dstMAC netutil.MAC, src, dst netip.Addr, sport, dport uint16, size int) probe {
	pkt := packet.NewUDP(srcMAC, dstMAC, src, dst, sport, dport, make([]byte, max(size-42, 0)))
	return probe{
		inPort: inPort,
		frame:  pkt.Serialize(),
		key: policy.Packet{
			Port: inPort, SrcMAC: srcMAC, DstMAC: dstMAC, EthType: packet.EtherTypeIPv4,
			SrcIP: src, DstIP: dst, Proto: packet.ProtoUDP, SrcPort: sport, DstPort: dport,
		},
	}
}

// inject sends one probe through the switch and returns the ports it left on.
func (s *stack) inject(p probe) ([]uint16, error) {
	s.egress = s.egress[:0]
	if err := s.sw.Inject(p.inPort, p.frame); err != nil {
		return nil, err
	}
	out := slices.Clone(s.egress)
	slices.Sort(out)
	return slices.Compact(out), nil
}

// expectedPorts evaluates the reference: first match over the compiled rule
// list, highest priority first.
func expectedPorts(rules []policy.Rule, key policy.Packet) []uint16 {
	var out []uint16
	for _, q := range (policy.Classifier{Rules: rules}).Eval(key) {
		out = append(out, q.Port)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// checkPrefixes is the control-plane oracle for a set of prefixes the sender
// just touched: the monitor's Adj-RIB-In must equal the route server's
// decision for it (same presence, same AS path, next hop rewritten to the
// controller's current virtual next hop), and up to maxProbes frames sent by
// the monitor toward the VMAC that next hop resolves to must leave the switch
// on a port of the best next-hop participant. Returns a description of the
// first disagreement, or "".
func (s *stack) checkPrefixes(prefixes []netip.Prefix, maxProbes int) string {
	rs := s.ctrl.RouteServer()
	mon := s.ex.Members[s.monitor.member]
	probes := 0
	for _, p := range prefixes {
		best, want := rs.BestFor(mon.ID, p)
		got, have := s.monitor.peer.In.Get(p)
		if want != have {
			return fmt.Sprintf("%v: monitor holds route=%v, route server decided route=%v", p, have, want)
		}
		if !want {
			continue
		}
		if !slices.Equal(got.Attrs.FlatASPath(), best.Attrs.FlatASPath()) {
			return fmt.Sprintf("%v: monitor AS path %v, route server best %v", p, got.Attrs.FlatASPath(), best.Attrs.FlatASPath())
		}
		if nh := s.ctrl.NextHopFor(mon.ID, p, best); got.NextHop() != nh {
			return fmt.Sprintf("%v: monitor next hop %v, controller advertises %v", p, got.NextHop(), nh)
		}
		if probes >= maxProbes {
			continue
		}
		probes++
		vmac, ok := s.ctrl.ResolveARP(got.NextHop())
		if !ok {
			return fmt.Sprintf("%v: next hop %v does not resolve to a virtual MAC", p, got.NextHop())
		}
		hop, _ := rs.BestNextHopParticipant(mon.ID, p)
		out, err := s.inject(udpProbe(mon.Ports[0].Number, mon.Ports[0].MAC, vmac,
			netip.AddrFrom4([4]byte{192, 0, 2, 1}), p.Addr().Next(), 40000, 9, 64))
		if err != nil {
			return fmt.Sprintf("%v: probe: %v", p, err)
		}
		if len(out) != 1 {
			return fmt.Sprintf("%v: probe left on ports %v, want one port of %s", p, out, hop)
		}
		if owner, _ := s.ctrl.PortOwner(out[0]); owner != hop {
			return fmt.Sprintf("%v: probe left on port %d of %s, best next hop is %s", p, out[0], owner, hop)
		}
	}
	return ""
}

// checkSettled runs checkPrefixes; on a disagreement it fences both sessions
// once and re-checks, because the monitor's sentinel can be decoded a moment
// before the last UPDATE of the same emission batch.
func (s *stack) checkSettled(prefixes []netip.Prefix, maxProbes int) string {
	msg := s.checkPrefixes(prefixes, maxProbes)
	if msg == "" {
		return ""
	}
	if err := s.fence(); err != nil {
		return err.Error()
	}
	return s.checkPrefixes(prefixes, maxProbes)
}

func eventPrefixes(events []workload.UpdateEvent) []netip.Prefix {
	out := make([]netip.Prefix, len(events))
	for i, ev := range events {
		out[i] = ev.Prefix
	}
	return out
}

// sendOp writes one operation's UPDATEs and its closing sentinel to the
// sender's socket and returns the sentinel's sequence number.
func (s *stack) sendOp(root int32, msgs []*bgp.Update) (uint32, error) {
	sid := s.tr.begin("harness.send", root, int32(s.sender.sentSeq+1))
	defer s.tr.end(sid)
	for _, u := range msgs {
		if err := s.sender.peer.Send(u); err != nil {
			return 0, err
		}
	}
	return s.sender.sendSentinel()
}

// quiesce runs the background stage off the clock and leaves the system
// idle: real bursts arrive ten seconds apart or more, so garbage from the
// previous recompilation has long been collected when the next one lands.
//
// The switch table is cleared out of band first. SetBase's diff-push sends
// one strict delete per stale rule, and the switch rebuilds its whole match
// index per delete that hits — seconds per pass at this table size, which
// would leave the window room for a few hundred bursts. On an empty table
// the deletes miss and cost a scan. Nothing is forwarding between bursts, so
// the trick changes no measured number; what the diff-push honestly costs is
// policy_recompile's and churn_sustained's business, where it is on the
// clock.
func (s *stack) quiesce() error {
	s.sw.Table.Clear()
	if err := s.background(); err != nil {
		return err
	}
	if err := s.fence(); err != nil {
		return err
	}
	runtime.GC()
	return s.err()
}

// timedStack builds one stack, warm included (caches warm is part of
// set-up), and records how long that took.
func timedStack(cfg runConfig, res *result, tr *tracer, warm func(*stack) error) (*stack, error) {
	t0 := time.Now()
	s, err := newStack(cfg.sz, tr)
	if err != nil {
		return nil, err
	}
	if warm != nil {
		if err := warm(s); err != nil {
			s.close()
			return nil, err
		}
	}
	res.setups = append(res.setups, time.Since(t0).Seconds())
	return s, nil
}

// finish tears the measured stack down and builds the remaining
// sz.setups-1 stacks, so setup_s is a median. The repeats come after the
// measurement, not before it: a session going down makes the route server
// flush the participant (hundreds of thousands of per-receiver changes),
// and that teardown garbage would otherwise set the measured run's peak RSS.
func (s *stack) finish(cfg runConfig, res *result, warm func(*stack) error) error {
	s.close()
	for i := 1; i < cfg.sz.setups; i++ {
		runtime.GC()
		extra, err := timedStack(cfg, res, nil, warm)
		if err != nil {
			return err
		}
		extra.close()
	}
	return nil
}

// counters is a snapshot of everything the harness counts at the layer
// boundaries it owns; the measured phase reports the difference of two.
type counters struct {
	of                           ofCounts
	pushes, rules, fecs, touched int
	memoHits, memoMisses         float64
	monitorMsgs, monitorNLRI     uint64
	invalidations                uint64
}

func (s *stack) counters() counters {
	s.mu.Lock()
	c := counters{pushes: s.pushes, rules: s.rules, fecs: s.newFECs, touched: s.touched}
	s.mu.Unlock()
	c.of = s.of.counts()
	c.memoHits = promValue(s.reg, "sdx_core_fastpath_cache_hits_total")
	c.memoMisses = promValue(s.reg, "sdx_core_fastpath_cache_misses_total")
	c.monitorMsgs, c.monitorNLRI = s.monitor.received()
	c.invalidations = s.sw.Table.CacheStats().Invalidations
	return c
}

// fastPathCounts publishes what moved since before.
func (s *stack) fastPathCounts(res *result, before counters) {
	now := s.counters()
	if n := now.pushes - before.pushes; n > 0 {
		res.count("rules_per_update", float64(now.rules-before.rules)/float64(n))
		res.count("fec_resigned_per_update", float64(now.fecs-before.fecs)/float64(n))
		res.count("touched_per_update", float64(now.touched-before.touched)/float64(n))
	}
	hits, misses := now.memoHits-before.memoHits, now.memoMisses-before.memoMisses
	if hits+misses > 0 {
		res.count("fastpath_memo_hit_ratio", hits/(hits+misses))
	}
	res.count("flow_mods", float64(now.of.flowMods-before.of.flowMods))
	res.count("flow_mod_bytes", float64(now.of.bytes-before.of.bytes))
	res.count("stale_deletes", float64(now.of.deletes-before.of.deletes))
	if msgs := now.monitorMsgs - before.monitorMsgs; msgs > 0 {
		res.count("updates_per_message", float64(now.monitorNLRI-before.monitorNLRI)/float64(msgs))
	}
	res.count("interned_attrs", float64(bgp.InternedAttrs()))
	res.count("prefix_groups", float64(s.base.Stats.PrefixGroups))
	res.count("flow_rules", float64(len(s.base.Rules)))
	res.count("cache_invalidations", float64(now.invalidations-before.invalidations))
}

// recordedRules are the rule sets of the fast-path results the glue saw.
func (s *stack) recordedRules() [][]policy.Rule {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]policy.Rule, len(s.recorded))
	for i, f := range s.recorded {
		out[i] = f.Rules
	}
	return out
}

// promValue reads one unlabelled sample from the registry's Prometheus
// exposition — the operator's view, and the only way the fast-path memo
// counters are exposed.
func promValue(reg *telemetry.Registry, name string) float64 {
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		return 0
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			fmt.Sscanf(rest, "%g", &v)
			return v
		}
	}
	return 0
}

func runBurstConverge(cfg runConfig) (*result, error) {
	res := &result{opRoot: "burst"}
	var bursts []workload.Burst
	var router *senderRouter
	next := 0
	// Throughput is taken per background-stage cycle (sz.reoptBursts bursts):
	// every cycle starts with a cold fast-path memo and warms the same way,
	// so cycles are comparable where arbitrary stretches of bursts are not.
	var cycle rate
	// one drives a single burst to convergence; timed says whether it counts.
	one := func(s *stack, timed bool) error {
		b := bursts[next%len(bursts)]
		next++
		msgs, err := router.updates(b.Updates)
		if err != nil {
			return err
		}
		s.tr.clock(timed)
		root := s.beginOp("burst")
		t0 := time.Now()
		seq, err := s.sendOp(root, msgs)
		if err != nil {
			return err
		}
		done, err := s.converged(seq)
		s.tr.clock(false)
		if err != nil {
			return err
		}
		s.tr.endAt(root, done)
		if !timed {
			return nil
		}
		lat := done.Sub(t0)
		res.latencies = append(res.latencies, float64(lat)/1e6)
		cycle.work += float64(len(b.Updates))
		cycle.clock += lat
		msg := s.checkSettled(eventPrefixes(b.Updates), cfg.sz.probesPerOp)
		res.check(msg == "", "burst %d: %s", next, msg)
		return nil
	}
	warm := func(s *stack) error {
		// Fresh stack, fresh router state; every stack warms on the same
		// leading bursts and the measured one continues from there.
		h := sha256.New()
		bursts = senderTrace(cfg.seed, s.ex, cfg.sz)
		hashBursts(h, bursts)
		res.inputs = hexSum(h)
		router = newSenderRouter(s.ex, s.tr != nil)
		next = 0
		for i := 0; i < cfg.sz.warmupBursts; i++ {
			if err := one(s, false); err != nil {
				return err
			}
		}
		return s.err()
	}
	s, err := timedStack(cfg, res, cfg.tr, warm)
	if err != nil {
		return nil, err
	}
	defer s.close()

	before := s.counters()
	start := time.Now()
	for i := 1; time.Since(start) < cfg.window(); i++ {
		if err := one(s, true); err != nil {
			return nil, err
		}
		if i%cfg.sz.reoptBursts == 0 {
			res.done(cycle.work, cycle.clock)
			cycle = rate{}
			if err := s.quiesce(); err != nil {
				return nil, err
			}
		}
	}
	if len(res.rates) == 0 {
		res.done(cycle.work, cycle.clock) // a window too short for one full cycle
	} else {
		res.work, res.clock = res.work+cycle.work, res.clock+cycle.clock
	}
	res.rssMB = peakRSSMB()
	n := len(res.latencies)
	p50, p95, rate := res.summary(cfg.tailQ)
	res.name("converge_p50_ms", p50, "ms", n)
	res.name("converge_p95_ms", p95, "ms", n)
	res.name("converge_p99_ms", percentile(res.latencies, 0.99), "ms", n) // printed, not gated
	res.name("converge_max_ms", percentile(res.latencies, 1), "ms", n)    // printed, not gated
	res.name("updates_per_s", rate, "1/s", int(res.work))
	s.fastPathCounts(res, before)
	if s.tr != nil {
		s.replayControl(router.sent, s.recordedRules(), 0xfffe)
	}
	if err := s.err(); err != nil {
		return nil, err
	}
	return res, s.finish(cfg, res, warm)
}

func runChurnSustained(cfg runConfig) (*result, error) {
	res := &result{opRoot: "window"}
	cfg.sz.participants, cfg.sz.prefixes = cfg.sz.smallParticipants, cfg.sz.smallPrefixes
	var bursts []workload.Burst
	var router *senderRouter
	warm := func(s *stack) error {
		h := sha256.New()
		bursts = senderTrace(cfg.seed, s.ex, cfg.sz)
		hashBursts(h, bursts)
		res.inputs = hexSum(h)
		router = newSenderRouter(s.ex, s.tr != nil)
		// Warm the fast-path memo with one window's worth of bursts.
		var msgs []*bgp.Update
		for _, b := range bursts[:min(cfg.sz.windowBursts, len(bursts))] {
			m, err := router.updates(b.Updates)
			if err != nil {
				return err
			}
			msgs = append(msgs, m...)
		}
		seq, err := s.sendOp(-1, msgs)
		if err != nil {
			return err
		}
		_, err = s.converged(seq)
		return err
	}
	s, err := timedStack(cfg, res, cfg.tr, warm)
	if err != nil {
		return nil, err
	}
	defer s.close()

	before := s.counters()
	type window struct {
		seq    uint32
		t0     time.Time
		root   int32
		events int
	}
	var inflight []window
	touched := make(map[netip.Prefix]bool)
	finish := func(w window) (time.Time, error) {
		done, err := s.converged(w.seq)
		if err != nil {
			return done, err
		}
		s.tr.endAt(w.root, done)
		res.latencies = append(res.latencies, float64(done.Sub(w.t0))/1e6)
		return done, nil
	}
	next := cfg.sz.windowBursts // continue after the warm-up window
	s.tr.clock(true)
	start := time.Now()
	last := start
	// One cycle is what the daemon does under sustained churn: ingest until
	// sz.reoptEvents events have arrived, then the background stage. The run
	// is whole cycles, so every run holds the same mix of ingest and
	// recompilation however the window's end falls.
	for time.Since(start) < cfg.window() {
		events := 0
		for events < cfg.sz.reoptEvents {
			var msgs []*bgp.Update
			w := window{}
			for i := 0; i < cfg.sz.windowBursts; i++ {
				b := bursts[next%len(bursts)]
				next++
				m, err := router.updates(b.Updates)
				if err != nil {
					return nil, err
				}
				msgs = append(msgs, m...)
				w.events += len(b.Updates)
				for _, ev := range b.Updates {
					touched[ev.Prefix] = true
				}
			}
			events += w.events
			w.root = s.beginOp("window")
			w.t0 = time.Now()
			if w.seq, err = s.sendOp(w.root, msgs); err != nil {
				return nil, err
			}
			inflight = append(inflight, w)
			if len(inflight) >= cfg.sz.windowsInPipe {
				if _, err = finish(inflight[0]); err != nil {
					return nil, err
				}
				inflight = inflight[1:]
			}
		}
		// The background stage runs on the clock, but only once the
		// pipeline has drained — the daemon's timer fires after quiescence
		// too. (A full compilation that overlaps ingest commits over the
		// equivalence classes the quick stage minted meanwhile and leaves
		// those prefixes forwarding on its stale snapshot until the next
		// pass; see README, "Found on the way".)
		for _, w := range inflight {
			if _, err = finish(w); err != nil {
				return nil, err
			}
		}
		inflight = inflight[:0]
		if err := s.background(); err != nil {
			return nil, err
		}
		now := time.Now()
		res.done(float64(events), now.Sub(last))
		last = now
	}
	s.tr.clock(false)
	res.rssMB = peakRSSMB()

	// Oracle, after the pipeline has drained: every prefix the trace touched.
	if err := s.fence(); err != nil {
		return nil, err
	}
	var all []netip.Prefix
	for p := range touched {
		all = append(all, p)
	}
	slices.SortFunc(all, func(a, b netip.Prefix) int { return a.Addr().Compare(b.Addr()) })
	for i := 0; i < len(all); i += 16 {
		group := all[i:min(i+16, len(all))]
		msg := s.checkPrefixes(group, 1)
		res.check(msg == "", "after drain: %s", msg)
	}
	n := len(res.latencies)
	p50, p90, rate := res.summary(cfg.tailQ)
	res.name("updates_per_s", rate, "1/s", int(res.work))
	res.name("window_p50_ms", p50, "ms", n)
	res.name("window_p90_ms", p90, "ms", n)
	res.name("cycles", float64(len(res.rates)), "count", 1)
	s.fastPathCounts(res, before)
	if s.tr != nil {
		s.replayControl(router.sent, s.recordedRules(), 0xfffe)
	}
	if err := s.err(); err != nil {
		return nil, err
	}
	return res, s.finish(cfg, res, warm)
}

func runPolicyRecompile(cfg runConfig) (*result, error) {
	res := &result{opRoot: "recompile"}
	cfg.sz.participants, cfg.sz.prefixes = cfg.sz.smallParticipants, cfg.sz.smallPrefixes
	s, err := timedStack(cfg, res, cfg.tr, nil)
	if err != nil {
		return nil, err
	}
	defer s.close()

	stream, err := newPolicyStream(cfg.seed, s)
	if err != nil {
		return nil, err
	}
	// The input hash covers the first two passes of an identical stream, so
	// it does not depend on how far this run gets.
	if probe, err := newPolicyStream(cfg.seed, s); err == nil {
		h := sha256.New()
		for i := 0; i < 2*len(probe.candidates); i++ {
			id, in, out, err := probe.next()
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(h, "%s in=%v out=%v\n", id, in, out)
		}
		res.inputs = hexSum(h)
	}

	before := s.counters()
	var compiled [][]policy.Rule
	var pass rate
	start := time.Now()
	for time.Since(start) < cfg.window() {
		id, inbound, outbound, err := stream.next()
		if err != nil {
			return nil, err
		}

		s.tr.clock(true)
		root := s.tr.begin("recompile", -1, int32(len(res.latencies)))
		t0 := time.Now()
		if err := s.ctrl.SetPolicies(id, inbound, outbound); err != nil {
			return nil, err
		}
		cid := s.tr.begin("core.compile", root, -1)
		out, err := s.ctrl.Compile()
		s.tr.end(cid)
		if err != nil {
			return nil, err
		}
		pid := s.tr.begin("core.push", root, -1)
		err = s.switches.SetBase(out)
		s.tr.end(pid)
		if err != nil {
			return nil, err
		}
		wid := s.tr.begin("openflow.barrier_wait", root, -1)
		done, err := s.of.waitReply(s.of.barriersSent())
		s.tr.endAt(wid, done)
		s.tr.endAt(root, done)
		s.tr.clock(false)
		if err != nil {
			return nil, err
		}
		s.base = out
		if s.tr != nil {
			compiled = append(compiled, out.Rules)
		}
		lat := done.Sub(t0)
		res.latencies = append(res.latencies, float64(lat)/1e6)
		// Throughput is taken per pass over the candidates: every pass
		// recompiles for the same mix of heavy (content, transit) and light
		// (eyeball) participants.
		pass.work++
		pass.clock += lat
		if stream.iter%len(stream.candidates) == 0 {
			res.done(pass.work, pass.clock)
			pass = rate{}
		}

		// Oracle: the switch holds exactly the lowered rules, and probe
		// frames leave where the compiled classifier says.
		res.check(s.sw.Table.Len() == len(out.Rules),
			"recompile %d: switch holds %d entries, compiler produced %d rules", len(res.latencies), s.sw.Table.Len(), len(out.Rules))
		bad := ""
		for i := 0; i < cfg.sz.recompileProbes && bad == ""; i++ {
			p := randomProbe(stream.rng, s.ex, out.FECs)
			got, err := s.inject(p)
			if want := expectedPorts(out.Rules, p.key); err != nil || !slices.Equal(got, want) {
				bad = fmt.Sprintf("probe %v left on %v, classifier says %v (err %v)", p.key, got, want, err)
			}
		}
		res.check(bad == "", "recompile %d: %s", len(res.latencies), bad)
		runtime.GC()
	}
	if len(res.rates) == 0 {
		res.done(pass.work, pass.clock) // a window too short for one full pass
	} else {
		res.work, res.clock = res.work+pass.work, res.clock+pass.clock
	}
	res.rssMB = peakRSSMB()
	n := len(res.latencies)
	p50, p90, rate := res.summary(cfg.tailQ)
	res.name("recompiles_per_s", rate, "1/s", n)
	res.name("recompile_p50_ms", p50, "ms", n)
	res.name("recompile_p90_ms", p90, "ms", n)
	res.name("flow_rules", float64(len(s.base.Rules)), "count", 1)
	s.fastPathCounts(res, before)
	if s.tr != nil {
		s.replayControl(nil, compiled, 0xefff)
		s.replayPolicyCompile()
	}
	if err := s.err(); err != nil {
		return nil, err
	}
	return res, s.finish(cfg, res, nil)
}

// policyStream yields policy_recompile's input: which participant gets a
// fresh §6.1-mix policy next, and the policy. The policies come from the same
// generator the exchange was built with (workload.InstallPolicies), run
// against a scratch controller that registers the participants in the same
// order, so virtual ports agree; each draw copies one participant's fresh
// policy out. Participants come round-robin in a per-pass seeded order, so
// every pass recompiles for the same mix of heavy (content, transit) and
// light (eyeball) participants.
type policyStream struct {
	rng        *rand.Rand
	ex         *workload.Exchange
	scratch    *core.Controller
	candidates []core.ID // participants holding a policy on the live controller
	iter       int
}

func newPolicyStream(seed int64, s *stack) (*policyStream, error) {
	p := &policyStream{
		rng:     rand.New(rand.NewSource(seed)),
		ex:      s.ex,
		scratch: core.NewController(routeserver.New(nil), core.DefaultOptions()),
	}
	for _, m := range s.ex.Members {
		if err := p.scratch.AddParticipant(core.Participant{ID: m.ID, AS: m.AS, Ports: m.Ports}); err != nil {
			return nil, err
		}
		if live, _ := s.ctrl.Participant(m.ID); live.Inbound != nil || live.Outbound != nil {
			p.candidates = append(p.candidates, m.ID)
		}
	}
	return p, nil
}

func (p *policyStream) next() (core.ID, policy.Policy, policy.Policy, error) {
	if _, err := workload.InstallPolicies(p.rng, p.ex, p.scratch, workload.DefaultPolicyMix()); err != nil {
		return "", nil, nil, err
	}
	if p.iter%len(p.candidates) == 0 {
		p.rng.Shuffle(len(p.candidates), func(i, j int) { p.candidates[i], p.candidates[j] = p.candidates[j], p.candidates[i] })
	}
	id := p.candidates[p.iter%len(p.candidates)]
	p.iter++
	fresh, _ := p.scratch.Participant(id)
	return id, fresh.Inbound, fresh.Outbound, nil
}

// appPorts are the application ports the §6.1 policies select on; probes
// draw from them so policy branches are actually exercised.
var appPorts = []uint16{80, 443, 8080, 1935, 554, 22}

// randomProbe draws a frame a participant could send: from one of its ports,
// toward a live equivalence class's VMAC, with header fields the policy mix
// matches on.
func randomProbe(rng *rand.Rand, ex *workload.Exchange, fecs []core.FEC) probe {
	m := ex.Members[rng.Intn(len(ex.Members))]
	port := m.Ports[rng.Intn(len(m.Ports))]
	fec := fecs[rng.Intn(len(fecs))]
	src := netip.AddrFrom4([4]byte{byte(rng.Intn(224)), byte(rng.Intn(256)), byte(rng.Intn(256)), 1})
	return udpProbe(port.Number, port.MAC, fec.VMAC, src, fec.Prefixes[0].Addr().Next(),
		uint16(1024+rng.Intn(60000)), appPorts[rng.Intn(len(appPorts))], 64)
}

// ribStream yields rib_ingest's input chunk by chunk: first the sender's
// table in order, then churn — 30 % withdrawals, the rest re-advertisements
// with a fresh attribute combination — over prefixes drawn from the seed.
type ribStream struct {
	d         *workload.DFZ
	table     []ribSlot // every (prefix, rank) the sender announces
	rng       *rand.Rand
	chunk     int
	cursor    int
	salt      uint64
	withdrawn map[int]bool
}

type ribSlot struct{ i, rank int }

func newRIBStream(seed int64, d *workload.DFZ, sender, chunk int) *ribStream {
	r := &ribStream{d: d, rng: rand.New(rand.NewSource(seed)), chunk: chunk, withdrawn: make(map[int]bool)}
	for i := range d.Prefixes {
		if rank := slices.Index(d.Announcers(i), sender); rank >= 0 {
			r.table = append(r.table, ribSlot{i, rank})
		}
	}
	return r
}

func (r *ribStream) next() (wd []netip.Prefix, adv []bgp.Advertisement) {
	seen := make(map[int]bool, r.chunk)
	for len(wd)+len(adv) < r.chunk {
		if r.cursor < len(r.table) {
			t := r.table[r.cursor]
			r.cursor++
			adv = append(adv, bgp.Advertisement{Prefix: r.d.Prefixes[t.i], Attrs: *r.d.Route(t.i, t.rank, 0).Attrs})
			continue
		}
		k := r.rng.Intn(len(r.table))
		if seen[k] {
			continue
		}
		seen[k] = true
		t := r.table[k]
		if !r.withdrawn[k] && r.rng.Float64() < 0.3 {
			r.withdrawn[k] = true
			wd = append(wd, r.d.Prefixes[t.i])
			continue
		}
		r.salt++
		delete(r.withdrawn, k)
		adv = append(adv, bgp.Advertisement{Prefix: r.d.Prefixes[t.i], Attrs: *r.d.Route(t.i, t.rank, r.salt).Attrs})
	}
	return wd, adv
}

func runRIBIngest(cfg runConfig) (*result, error) {
	res := &result{opRoot: "chunk"}
	sz := cfg.sz
	var (
		d      *workload.DFZ
		rs     *routeserver.Server
		side   *routeServerSide
		sender = 0
		mon    = sz.dfzMembers - 1
	)
	// load builds a route server holding every member's routes but the
	// sender's, which must arrive over its session.
	load := func() (*routeserver.Server, error) {
		rs := routeserver.New(nil)
		if err := d.Register(rs); err != nil {
			return nil, err
		}
		rs.Reserve(len(d.Prefixes))
		for i := range d.Prefixes {
			for rank, mi := range d.Announcers(i) {
				if mi == sender {
					continue
				}
				if err := rs.Load(d.Members[mi].ID, d.Route(i, rank, 0)); err != nil {
					return nil, err
				}
			}
		}
		return rs, nil
	}
	setup := func() error {
		t0 := time.Now()
		d = workload.GenerateDFZ(topologySeed, sz.dfzMembers, sz.dfzPrefixes)
		var err error
		if rs, err = load(); err != nil {
			return err
		}
		if side, err = startRouteServer(rs, &workload.Exchange{Members: d.Members}, sender, mon, nil); err != nil {
			return err
		}
		if err := side.fence(); err != nil {
			side.close()
			return err
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}
	defer func() { side.close() }()
	runtime.GC()

	stream := newRIBStream(cfg.seed, d, sender, sz.ribChunk)
	// The input hash covers the first churn chunk of an identical stream, so
	// it does not depend on how far this run gets.
	{
		probe := newRIBStream(cfg.seed, d, sender, sz.ribChunk)
		probe.cursor = len(probe.table)
		wd, adv := probe.next()
		h := sha256.New()
		fmt.Fprintf(h, "withdraw %v\n", wd)
		for _, a := range adv {
			fmt.Fprintf(h, "%v %v\n", a.Prefix, a.Attrs)
		}
		res.inputs = hexSum(h)
	}
	table := stream.table
	rng := stream.rng
	var sent []*bgp.Update
	chunk := func() ([]*bgp.Update, int, error) {
		wd, adv := stream.next()
		msgs, err := bgp.PackUpdates(wd, adv)
		return msgs, len(wd) + len(adv), err
	}

	type window struct {
		seq    uint32
		t0     time.Time
		root   int32
		routes int
	}
	var inflight []window
	var last time.Time // when the previous chunk completed
	finish := func(w window) (time.Time, error) {
		done, err := side.monitor.waitSentinel(w.seq)
		if err != nil {
			return done, err
		}
		cfg.tr.endAt(w.root, done)
		res.latencies = append(res.latencies, float64(done.Sub(w.t0))/1e6)
		res.done(float64(w.routes), done.Sub(last))
		res.attempted++
		return done, nil
	}
	cfg.tr.clock(true)
	start := time.Now()
	last = start
	var err error
	// The table is always streamed in full; churn fills the rest of the window.
	for stream.cursor < len(table) || time.Since(start) < cfg.window() {
		msgs, n, err := chunk()
		if err != nil {
			return nil, err
		}
		if cfg.tr != nil {
			sent = append(sent, msgs...)
		}
		w := window{routes: n, root: cfg.tr.begin("chunk", -1, int32(side.sender.sentSeq+1))}
		w.t0 = time.Now()
		sid := cfg.tr.begin("harness.send", w.root, -1)
		for _, u := range msgs {
			if err := side.sender.peer.Send(u); err != nil {
				return nil, err
			}
		}
		w.seq, err = side.sender.sendSentinel()
		cfg.tr.end(sid)
		if err != nil {
			return nil, err
		}
		inflight = append(inflight, w)
		if len(inflight) >= sz.windowsInPipe {
			if last, err = finish(inflight[0]); err != nil {
				return nil, err
			}
			inflight = inflight[1:]
		}
	}
	for _, w := range inflight {
		if last, err = finish(w); err != nil {
			return nil, err
		}
	}
	cfg.tr.clock(false)
	res.rssMB = peakRSSMB()

	// Oracle: after a fence the monitor's Adj-RIB-In agrees with the route
	// server for a sample of the sender's prefixes.
	if err := side.fence(); err != nil {
		return nil, err
	}
	monID := d.Members[mon].ID
	for k := 0; k < 512; k++ {
		p := d.Prefixes[table[rng.Intn(len(table))].i]
		best, want := rs.BestFor(monID, p)
		got, have := side.monitor.peer.In.Get(p)
		ok := want == have && (!want || (bgp.AttrsEqual(got.Attrs, best.Attrs)))
		res.check(ok, "%v: monitor holds %v (present %v), route server best %v (present %v)", p, got.Attrs, have, best.Attrs, want)
	}

	n := len(res.latencies)
	p50, p90, rate := res.summary(cfg.tailQ)
	res.name("routes_per_s", rate, "1/s", int(res.work))
	res.name("chunk_p50_ms", p50, "ms", n)
	res.name("chunk_p90_ms", p90, "ms", n)
	res.name("table_routes", float64(len(table)), "count", 1)
	if msgs, nlri := side.monitor.received(); msgs > 0 {
		res.count("updates_per_message", float64(nlri)/float64(msgs))
	}
	res.count("interned_attrs", float64(bgp.InternedAttrs()))
	if cfg.tr != nil {
		shadow, err := load()
		if err != nil {
			return nil, err
		}
		m := d.Members[sender]
		touched := replayBGP(cfg.tr, sent, shadow, m.ID, monID, m.AS, m.Ports[0].RouterIP)
		res.count("touched_per_update", touched)
		spans, _ := cfg.tr.snapshot()
		coreSpans := 0
		for _, sp := range spans {
			if strings.HasPrefix(sp.Name, "core.") {
				coreSpans++
			}
		}
		res.require("core_spans", float64(coreSpans), "= 0 (controller absent)", coreSpans == 0)
	}
	// Remaining set-ups, after the measurement (see stack.finish).
	for i := 1; i < sz.setups; i++ {
		side.close()
		runtime.GC()
		if err := setup(); err != nil {
			return nil, err
		}
	}
	return res, nil
}
