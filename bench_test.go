package sdx

// One benchmark per table and figure of the paper's evaluation, plus
// ablations and micro-benchmarks of the hot paths. Each figure benchmark
// runs its experiment at a reduced default scale so `go test -bench=.`
// completes in minutes; cmd/sdx-bench runs the full sweeps and prints the
// rows. Custom metrics surface the paper's own units (prefix groups, flow
// rules, milliseconds per update).

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/experiments"
	"sdx/internal/flowexport"
	"sdx/internal/netutil"
	"sdx/internal/openflow"
	"sdx/internal/packet"
	"sdx/internal/policy"
	"sdx/internal/routeserver"
	"sdx/internal/workload"
)

// --- Table 1 --------------------------------------------------------------

func BenchmarkTable1UpdateTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(experiments.Config{Seed: int64(i + 1), Scale: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 3 {
			b.Fatal("expected 3 IXP rows")
		}
	}
}

// --- Figure 5: deployment experiments --------------------------------------

func BenchmarkFig5aAppSpecificPeering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5a(experiments.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !res.ShapeOK {
			b.Fatal("figure 5a shape broken")
		}
	}
}

func BenchmarkFig5bLoadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5b(experiments.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !res.ShapeOK {
			b.Fatal("figure 5b shape broken")
		}
	}
}

// --- Figure 6: prefix groups ------------------------------------------------

func BenchmarkFig6PrefixGroups(b *testing.B) {
	var groups int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(experiments.Config{Seed: 42},
			[]int{100, 200, 300}, []int{5000, 15000, 25000})
		if err != nil {
			b.Fatal(err)
		}
		groups = res.Points[len(res.Points)-1].PrefixGroups
	}
	b.ReportMetric(float64(groups), "groups@300p/25k")
}

// --- Figures 7 & 8: flow rules and initial compilation time ------------------

func BenchmarkFig7FlowRules(b *testing.B) {
	var rules, groups int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7and8(experiments.Config{Seed: 42},
			[]int{300}, []int{5000})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		rules, groups = last.FlowRules, last.PrefixGroups
	}
	b.ReportMetric(float64(rules), "flowrules")
	b.ReportMetric(float64(groups), "groups")
}

func BenchmarkFig8InitialCompilation(b *testing.B) {
	// Build once; time only the compilation, the paper's Figure 8 metric.
	rng := rand.New(rand.NewSource(42))
	ex := workload.GenerateExchange(rng, 200, 5000)
	ctrl := core.NewController(routeserver.New(nil), core.DefaultOptions())
	if err := ex.Populate(ctrl); err != nil {
		b.Fatal(err)
	}
	mix := workload.DefaultPolicyMix()
	mix.Multiplier = 2
	mix.BroadTargets = true
	if _, err := workload.InstallPolicies(rng, ex, ctrl, mix); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var groups int
	for i := 0; i < b.N; i++ {
		res, err := ctrl.Compile()
		if err != nil {
			b.Fatal(err)
		}
		groups = res.Stats.PrefixGroups
	}
	b.ReportMetric(float64(groups), "groups")
}

// --- Parallel compilation ------------------------------------------------------

// benchFig8CompileWorkers is BenchmarkFig8InitialCompilation at a given
// worker-pool size; the compiled output is byte-identical at every setting
// (TestParallelCompileEquality), so the variants differ only in wall-clock.
// Speedups show on multi-core hosts; at GOMAXPROCS=1 the fan-out degrades
// to the sequential path.
func benchFig8CompileWorkers(b *testing.B, parallelism int) {
	rng := rand.New(rand.NewSource(42))
	ex := workload.GenerateExchange(rng, 200, 5000)
	opts := core.DefaultOptions()
	opts.Compile.Parallelism = parallelism
	ctrl := core.NewController(routeserver.New(nil), opts)
	if err := ex.Populate(ctrl); err != nil {
		b.Fatal(err)
	}
	mix := workload.DefaultPolicyMix()
	mix.Multiplier = 2
	mix.BroadTargets = true
	if _, err := workload.InstallPolicies(rng, ex, ctrl, mix); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rules int
	for i := 0; i < b.N; i++ {
		res, err := ctrl.Compile()
		if err != nil {
			b.Fatal(err)
		}
		rules = res.Stats.FlowRules
	}
	b.ReportMetric(float64(rules), "flowrules")
}

func BenchmarkCompileSequential(b *testing.B)       { benchFig8CompileWorkers(b, 1) }
func BenchmarkCompileParallel2(b *testing.B)        { benchFig8CompileWorkers(b, 2) }
func BenchmarkCompileParallel4(b *testing.B)        { benchFig8CompileWorkers(b, 4) }
func BenchmarkCompileParallelMaxProcs(b *testing.B) { benchFig8CompileWorkers(b, -1) }

// --- Figure 9: additional rules after update bursts ---------------------------

func BenchmarkFig9BurstRules(b *testing.B) {
	var extra int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(experiments.Config{Seed: 42},
			[]int{200}, []int{0, 50, 100})
		if err != nil {
			b.Fatal(err)
		}
		extra = res.Points[len(res.Points)-1].AdditionalRules
	}
	b.ReportMetric(float64(extra), "rules@100updates")
}

// --- Figure 10: single-update fast-path latency -------------------------------

func BenchmarkFig10UpdateLatency(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	ex := workload.GenerateExchange(rng, 200, 4000)
	ctrl := core.NewController(routeserver.New(nil), core.DefaultOptions())
	if err := ex.Populate(ctrl); err != nil {
		b.Fatal(err)
	}
	if _, err := workload.InstallPolicies(rng, ex, ctrl, workload.DefaultPolicyMix()); err != nil {
		b.Fatal(err)
	}
	if _, err := ctrl.Compile(); err != nil {
		b.Fatal(err)
	}
	rs := ctrl.RouteServer()
	// Multi-homed prefixes whose withdrawal flips a best path.
	var flippable []netip.Prefix
	for _, p := range ex.Prefixes {
		if len(ex.AnnouncersOf[p]) >= 2 {
			flippable = append(flippable, p)
		}
	}
	if len(flippable) == 0 {
		b.Fatal("no multi-homed prefixes")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := flippable[i%len(flippable)]
		owner := ex.Members[ex.AnnouncersOf[p][0]].ID
		touched, err := rs.Withdraw(owner, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctrl.FastReact(touched); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rs.Advertise(owner, ex.RouteFor(ex.AnnouncersOf[p][0], p, 0))
		b.StartTimer()
	}
}

// --- Ablations ----------------------------------------------------------------

func benchCompileWith(b *testing.B, opts core.Options, participants, prefixes int) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	ex := workload.GenerateExchange(rng, participants, prefixes)
	ctrl := core.NewController(routeserver.New(nil), opts)
	if err := ex.Populate(ctrl); err != nil {
		b.Fatal(err)
	}
	if _, err := workload.InstallPolicies(rng, ex, ctrl, workload.DefaultPolicyMix()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rules int
	for i := 0; i < b.N; i++ {
		res, err := ctrl.Compile()
		if err != nil {
			b.Fatal(err)
		}
		rules = res.Stats.FlowRules
	}
	b.ReportMetric(float64(rules), "flowrules")
}

func BenchmarkAblationFull(b *testing.B) {
	benchCompileWith(b, core.DefaultOptions(), 100, 3000)
}

func BenchmarkAblationNoDisjoint(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Compile = policy.CompileOptions{NoDisjoint: true}
	benchCompileWith(b, opts, 100, 3000)
}

func BenchmarkAblationNoMemo(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Compile = policy.CompileOptions{NoMemo: true}
	benchCompileWith(b, opts, 100, 3000)
}

func BenchmarkAblationNoVNH(b *testing.B) {
	// Raw prefix filters explode policy size (the point of §4.2); a tenth
	// of the prefixes keeps the baseline comparable in wall-clock.
	benchCompileWith(b, core.Options{VNHEncoding: false}, 100, 300)
}

func BenchmarkAblationNoFastPath(b *testing.B) {
	// Reacting to one update WITHOUT the fast path means a full
	// recompilation — the §4.3.2 baseline.
	rng := rand.New(rand.NewSource(42))
	ex := workload.GenerateExchange(rng, 100, 3000)
	ctrl := core.NewController(routeserver.New(nil), core.DefaultOptions())
	if err := ex.Populate(ctrl); err != nil {
		b.Fatal(err)
	}
	if _, err := workload.InstallPolicies(rng, ex, ctrl, workload.DefaultPolicyMix()); err != nil {
		b.Fatal(err)
	}
	if _, err := ctrl.Compile(); err != nil {
		b.Fatal(err)
	}
	rs := ctrl.RouteServer()
	var flippable []netip.Prefix
	for _, p := range ex.Prefixes {
		if len(ex.AnnouncersOf[p]) >= 2 {
			flippable = append(flippable, p)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := flippable[i%len(flippable)]
		owner := ex.Members[ex.AnnouncersOf[p][0]].ID
		if _, err := rs.Withdraw(owner, p); err != nil {
			b.Fatal(err)
		}
		if _, err := ctrl.Compile(); err != nil { // full recompilation instead
			b.Fatal(err)
		}
		b.StopTimer()
		rs.Advertise(owner, ex.RouteFor(ex.AnnouncersOf[p][0], p, 0))
		b.StartTimer()
	}
}

// --- Micro-benchmarks of the hot paths ------------------------------------------

func BenchmarkPolicyCompileAppPeering(b *testing.B) {
	pol := policy.Par(
		policy.SeqOf(policy.MatchPolicy(policy.MatchAll.Port(1).DstPort(80)), policy.Fwd(100)),
		policy.SeqOf(policy.MatchPolicy(policy.MatchAll.Port(1).DstPort(443)), policy.Fwd(101)),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		policy.Compile(pol)
	}
}

func BenchmarkClassifierEval(b *testing.B) {
	var branches []policy.Policy
	for p := uint16(1); p <= 64; p++ {
		branches = append(branches, policy.SeqOf(
			policy.MatchPolicy(policy.MatchAll.Port(p).DstPort(80)), policy.Fwd(100+p)))
	}
	cl := policy.Compile(policy.Par(branches...))
	pkt := policy.Packet{Port: 64, EthType: 0x0800,
		SrcIP: netip.MustParseAddr("1.1.1.1"), DstIP: netip.MustParseAddr("2.2.2.2"),
		Proto: 17, DstPort: 80}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cl.Eval(pkt)
	}
}

func BenchmarkSwitchForwarding(b *testing.B) {
	sw := dataplane.NewSwitch(1)
	sw.AttachPort(1, func([]byte) {})
	sw.AttachPort(2, func([]byte) {})
	for p := uint16(0); p < 512; p++ {
		sw.Table.Add(&dataplane.FlowEntry{
			Match:    policy.MatchAll.Port(1).DstPort(10000 + p),
			Priority: 10 + p,
			Actions:  []openflow.Action{openflow.Output(2)},
		})
	}
	sw.Table.Add(&dataplane.FlowEntry{
		Match: policy.MatchAll.Port(1), Priority: 1,
		Actions: []openflow.Action{openflow.Output(2)},
	})
	frame := packet.NewUDP(
		netutil.MustParseMAC("02:00:00:00:00:01"), netutil.MustParseMAC("02:00:00:00:00:02"),
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("20.0.0.1"),
		4000, 10511, make([]byte, 1400)).Serialize()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sw.Inject(1, frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwitchForwardingSampled is BenchmarkSwitchForwarding with sFlow
// sampling enabled at the production-default 1-in-1024 rate. The guard: the
// sampled path must stay within a few percent of the unsampled path (1023 of
// 1024 frames pay only a counter increment; the 1024th builds one Record and
// does a non-blocking channel send).
func BenchmarkSwitchForwardingSampled(b *testing.B) {
	sw := dataplane.NewSwitch(1)
	sw.AttachPort(1, func([]byte) {})
	sw.AttachPort(2, func([]byte) {})
	for p := uint16(0); p < 512; p++ {
		sw.Table.Add(&dataplane.FlowEntry{
			Match:    policy.MatchAll.Port(1).DstPort(10000 + p),
			Priority: 10 + p,
			Actions:  []openflow.Action{openflow.Output(2)},
		})
	}
	sw.Table.Add(&dataplane.FlowEntry{
		Match: policy.MatchAll.Port(1), Priority: 1,
		Actions: []openflow.Action{openflow.Output(2)},
	})
	ex := flowexport.New(1024, 4096)
	sw.SetFlowExporter(ex)
	// Drain concurrently so the bounded channel never fills; a full channel
	// would still not block (Export drops), but drops would understate the
	// sampled path's true cost.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-ex.Records():
			case <-stop:
				return
			}
		}
	}()
	defer func() { close(stop); <-done }()
	frame := packet.NewUDP(
		netutil.MustParseMAC("02:00:00:00:00:01"), netutil.MustParseMAC("02:00:00:00:00:02"),
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("20.0.0.1"),
		4000, 10511, make([]byte, 1400)).Serialize()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sw.Inject(1, frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwitchForwarding10k is BenchmarkSwitchForwarding at the Figure-7
// table scale (10k rules), with the injected flow matching the low-priority
// fallback so an unindexed lookup must consider the whole table. Steady-state
// forwarding of one flow is exactly what the microflow cache accelerates.
func BenchmarkSwitchForwarding10k(b *testing.B) {
	sw := dataplane.NewSwitch(1)
	sw.AttachPort(1, func([]byte) {})
	sw.AttachPort(2, func([]byte) {})
	entries := make([]*dataplane.FlowEntry, 0, 10001)
	for p := 0; p < 10000; p++ {
		entries = append(entries, &dataplane.FlowEntry{
			Match:    policy.MatchAll.Port(1).DstPort(uint16(10000 + p)),
			Priority: uint16(10 + p),
			Actions:  []openflow.Action{openflow.Output(2)},
		})
	}
	entries = append(entries, &dataplane.FlowEntry{
		Match: policy.MatchAll.Port(1), Priority: 1,
		Actions: []openflow.Action{openflow.Output(2)},
	})
	sw.Table.AddBatch(entries)
	frame := packet.NewUDP(
		netutil.MustParseMAC("02:00:00:00:00:01"), netutil.MustParseMAC("02:00:00:00:00:02"),
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("20.0.0.1"),
		4000, 99, make([]byte, 1400)).Serialize()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sw.Inject(1, frame); err != nil {
			b.Fatal(err)
		}
	}
	st := sw.Table.CacheStats()
	if total := st.Hits + st.Misses; total > 0 {
		b.ReportMetric(float64(st.Hits)/float64(total), "hit-rate")
	}
}

// aggregate10kSwitch builds the megaflow benchmark switch: 10k rules on one
// ingress port keyed by destination service port, exactly the linerate
// experiment's table shape.
func aggregate10kSwitch() *dataplane.Switch {
	sw := dataplane.NewSwitch(1)
	sw.AttachPort(1, func([]byte) {})
	sw.AttachPort(2, func([]byte) {})
	entries := make([]*dataplane.FlowEntry, 0, 10000)
	for p := 0; p < 10000; p++ {
		entries = append(entries, &dataplane.FlowEntry{
			Match:    policy.MatchAll.Port(1).DstPort(uint16(10000 + p)),
			Priority: 10,
			Actions:  []openflow.Action{openflow.Output(2)},
		})
	}
	sw.Table.AddBatch(entries)
	return sw
}

// aggregateFrame renders the benchmark frame: UDP toward a matched service
// port. The caller patches bytes 26..30 (IPv4 source) per injection to make
// every 5-tuple distinct — the "aggregate" traffic the megaflow tier exists
// for, where the exact-match microflow cache never hits twice.
func aggregateFrame() []byte {
	return packet.NewUDP(
		netutil.MustParseMAC("02:00:00:00:00:01"), netutil.MustParseMAC("02:00:00:00:00:02"),
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("20.0.0.1"),
		4000, 10005, make([]byte, 1400)).Serialize()
}

// BenchmarkSwitchForwardingAggregate10k is the megaflow gate workload at
// single-frame granularity: 10k rules, every injected frame a fresh 5-tuple.
// Without the wildcard tier each frame would walk the classifier; with it
// each frame is one lock-free masked probe.
func BenchmarkSwitchForwardingAggregate10k(b *testing.B) {
	sw := aggregate10kSwitch()
	frame := aggregateFrame()
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint32(frame[26:30], uint32(i)+1)
		if err := sw.Inject(1, frame); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportAggregateStats(b, sw)
}

// BenchmarkSwitchForwardingAggregate10kBatch is the same workload through
// InjectBatch at the linerate batch size: per-frame locks, telemetry, and
// exporter checks amortize across the batch. ns/op is per BATCH of 256
// frames; the pkts/s metric is the per-frame rate.
func BenchmarkSwitchForwardingAggregate10kBatch(b *testing.B) {
	const batch = 256
	sw := aggregate10kSwitch()
	frames := make([][]byte, batch)
	for i := range frames {
		frames[i] = aggregateFrame()
	}
	b.SetBytes(int64(batch * len(frames[0])))
	b.ReportAllocs()
	b.ResetTimer()
	n := uint32(0)
	for i := 0; i < b.N; i++ {
		for _, f := range frames {
			n++
			binary.BigEndian.PutUint32(f[26:30], n)
		}
		if err := sw.InjectBatch(1, frames); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "pkts/s")
	reportAggregateStats(b, sw)
}

func reportAggregateStats(b *testing.B, sw *dataplane.Switch) {
	st := sw.Table.CacheStats()
	if n := st.MegaflowHits + st.Misses; n > 0 {
		b.ReportMetric(float64(st.MegaflowHits)/float64(n), "megaflow-rate")
	}
}

// benchFlowTableLookup drives Lookup over an SDX-shaped table — rules keyed
// by exact destination MAC (the paper's VMAC tag stage) over a small residual
// band of wildcard rules — cycling through `flows` distinct header tuples.
// flows=1 is the pure cache fast path; flows larger than the microflow cache
// keeps the slow path (and its match index) honest.
func benchFlowTableLookup(b *testing.B, rules, flows int) {
	ft := dataplane.NewFlowTable()
	entries := make([]*dataplane.FlowEntry, 0, rules)
	for i := 0; i < rules-16; i++ {
		entries = append(entries, &dataplane.FlowEntry{
			Match:    policy.MatchAll.DstMAC(netutil.VMAC(uint32(i))),
			Priority: uint16(100 + i%100),
			Actions:  []openflow.Action{openflow.Output(uint16(2 + i%30))},
		})
	}
	for i := 0; i < 16; i++ {
		entries = append(entries, &dataplane.FlowEntry{
			Match:    policy.MatchAll.Port(uint16(1 + i)),
			Priority: uint16(1 + i),
			Actions:  []openflow.Action{openflow.Output(1)},
		})
	}
	ft.AddBatch(entries)
	pkts := make([]policy.Packet, flows)
	for f := range pkts {
		pkts[f] = policy.Packet{
			Port:    uint16(1 + f%16),
			SrcMAC:  netutil.MustParseMAC("02:00:00:00:00:01"),
			DstMAC:  netutil.VMAC(uint32(f % (rules * 2))), // half miss the VMAC band
			EthType: 0x0800,
			SrcIP:   netip.AddrFrom4([4]byte{10, byte(f >> 8), byte(f), 1}),
			DstIP:   netip.AddrFrom4([4]byte{20, 0, 0, 1}),
			Proto:   17,
			SrcPort: uint16(4000 + f%1000),
			DstPort: 80,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Lookup(pkts[i%flows], 1400)
	}
	st := ft.CacheStats()
	if total := st.Hits + st.Misses; total > 0 {
		b.ReportMetric(float64(st.Hits)/float64(total), "hit-rate")
	}
}

func BenchmarkFlowTableLookup(b *testing.B) {
	for _, c := range []struct {
		name  string
		rules int
	}{{"rules=100", 100}, {"rules=1k", 1000}, {"rules=10k", 10000}} {
		b.Run(c.name, func(b *testing.B) { benchFlowTableLookup(b, c.rules, 1024) })
	}
	// Cache-hit-rate sweep at the Figure-7 scale: from one hot flow to far
	// more flows than microflow-cache slots.
	for _, flows := range []int{1, 1024, 65536} {
		b.Run(fmt.Sprintf("rules=10k/flows=%d", flows), func(b *testing.B) {
			benchFlowTableLookup(b, 10000, flows)
		})
	}
}

func BenchmarkBGPUpdateRoundTrip(b *testing.B) {
	u := &bgp.Update{
		Attrs: *bgp.Intern(bgp.PathAttrs{
			NextHop:      netip.MustParseAddr("192.0.2.1"),
			ASPath:       []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{65001, 3356, 43515}}},
			LocalPref:    200,
			HasLocalPref: true,
			Communities:  []uint32{0x00010002},
		}),
		NLRI: []netip.Prefix{
			netip.MustParsePrefix("10.0.0.0/8"),
			netip.MustParsePrefix("172.16.0.0/12"),
			netip.MustParsePrefix("192.168.0.0/16"),
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, err := bgp.Marshal(u)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bgp.Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowModEncode(b *testing.B) {
	rule := policy.Rule{
		Match: policy.MatchAll.Port(1).DstMAC(netutil.VMAC(7)).DstPort(80),
		Actions: []policy.Mods{
			policy.Identity.SetDstMAC(netutil.MustParseMAC("02:0b:00:00:00:01")).SetPort(2),
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fm, err := openflow.FlowModFromRule(rule, 100)
		if err != nil {
			b.Fatal(err)
		}
		openflow.EncodeFlowMod(fm, uint32(i))
	}
}

func BenchmarkRouteServerAdvertise(b *testing.B) {
	rs := routeserver.New(nil)
	for i := 0; i < 100; i++ {
		rs.AddParticipant(routeserver.ID(rune('A'+i%26))+routeserver.ID(rune('a'+i/26)), uint32(65000-i))
	}
	ids := rs.Participants()
	route := bgp.Route{
		Prefix: netip.MustParsePrefix("10.0.0.0/8"),
		Attrs: bgp.Intern(bgp.PathAttrs{
			NextHop: netip.MustParseAddr("192.0.2.1"),
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{65001}}},
		}),
		PeerAS: 65001,
		PeerID: netip.MustParseAddr("10.9.9.9"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route.Prefix = netip.PrefixFrom(
			netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		if _, err := rs.Advertise(ids[i%len(ids)], route); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnPipeline is the end-to-end churn measurement behind the
// route-server scaling work: a Table-1-calibrated burst trace pushed over
// live BGP sessions through frontend -> engine -> controller fast path,
// timed until every re-advertisement reaches a monitor peer. The custom
// metrics (sustained updates/s, p99 burst-reaction latency, UPDATE messages
// emitted) land in BENCH_routeserver.json via make bench-smoke.
func BenchmarkChurnPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Churn(experiments.Config{Seed: 42}, 1000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.UpdatesPerSec, "updates/s")
		b.ReportMetric(float64(res.BurstP99.Microseconds()), "p99-µs")
		b.ReportMetric(float64(res.MessagesOut), "msgs-out")
	}
}

func BenchmarkFECComputation(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	ex := workload.GenerateExchange(rng, 200, 10000)
	ctrl := core.NewController(routeserver.New(nil), core.DefaultOptions())
	if err := ex.Populate(ctrl); err != nil {
		b.Fatal(err)
	}
	mix := workload.DefaultPolicyMix()
	mix.BroadTargets = true
	if _, err := workload.InstallPolicies(rng, ex, ctrl, mix); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var vnhTime time.Duration
	for i := 0; i < b.N; i++ {
		res, err := ctrl.Compile()
		if err != nil {
			b.Fatal(err)
		}
		vnhTime = res.Stats.VNHTime
	}
	b.ReportMetric(float64(vnhTime.Microseconds()), "vnh-µs")
}
