package sdx

// One benchmark per table and figure of the paper's evaluation, plus
// ablations and the FEC computation. Each figure benchmark runs its
// experiment at a reduced default scale so `go test -bench=.` completes in
// minutes; cmd/sdx-bench runs the full sweeps and prints the rows. Custom
// metrics surface the paper's own units (prefix groups, flow rules,
// milliseconds per update). Performance of the running system is measured by
// benchmark/, not here.

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"sdx/internal/core"
	"sdx/internal/experiments"
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
