package core_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/netutil"
	"sdx/internal/packet"
	"sdx/internal/routeserver"
	"sdx/internal/workload"
)

// buildExchange constructs a populated controller from a deterministic seed.
// Two calls with the same profile produce bit-identical inputs (the rng
// stream is replayed from scratch), so compilations under different worker
// counts can be compared output-for-output.
func buildExchange(t testing.TB, opts core.Options, seed int64, participants, prefixes int, mult float64, broad bool) *core.Controller {
	t.Helper()
	ctrl, _, _ := buildExchangeOn(t, routeserver.New(nil), opts, seed, participants, prefixes, mult, broad)
	return ctrl
}

// buildExchangeOn is buildExchange on a caller-built route server; it also
// returns the exchange and the rng (positioned after policy installation)
// for tests that go on to generate a trace.
func buildExchangeOn(t testing.TB, rs *routeserver.Server, opts core.Options, seed int64, participants, prefixes int, mult float64, broad bool) (*core.Controller, *workload.Exchange, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ex := workload.GenerateExchange(rng, participants, prefixes)
	ctrl := core.NewController(rs, opts)
	if err := ex.Populate(ctrl); err != nil {
		t.Fatal(err)
	}
	mix := workload.DefaultPolicyMix()
	mix.Multiplier = mult
	mix.BroadTargets = broad
	if _, err := workload.InstallPolicies(rng, ex, ctrl, mix); err != nil {
		t.Fatal(err)
	}
	return ctrl, ex, rng
}

// TestParallelCompileEquality checks the tentpole invariant: the parallel
// compilation pipeline produces byte-identical output to the sequential one
// at every worker count, across workload profiles that exercise different
// pipeline stages (VNH encoding on/off, shadow-elimination on/off, broad
// forwarding targets, dense policies). Only the classifier, the flattened
// rules, and the equivalence classes are compared — CompileStats operation
// counters (memoization hits in particular) legitimately differ when
// identical subtrees compile concurrently before either lands in the memo.
func TestParallelCompileEquality(t *testing.T) {
	profiles := []struct {
		name         string
		participants int
		prefixes     int
		mult         float64
		broad        bool
		optimize     bool
		noVNH        bool
	}{
		{name: "default-mix", participants: 30, prefixes: 400, mult: 1},
		{name: "dense-policies", participants: 40, prefixes: 600, mult: 2},
		{name: "broad-targets", participants: 30, prefixes: 500, mult: 1.5, broad: true},
		{name: "optimized", participants: 25, prefixes: 300, mult: 1, optimize: true},
		{name: "no-vnh-encoding", participants: 12, prefixes: 80, mult: 1, noVNH: true},
	}
	for _, pr := range profiles {
		pr := pr
		t.Run(pr.name, func(t *testing.T) {
			baseOpts := core.DefaultOptions()
			baseOpts.Optimize = pr.optimize
			if pr.noVNH {
				baseOpts = core.Options{Optimize: pr.optimize}
			}

			compileTwice := func(parallelism int) (*core.CompileResult, *core.CompileResult) {
				opts := baseOpts
				opts.Compile.Parallelism = parallelism
				ctrl := buildExchange(t, opts, 42, pr.participants, pr.prefixes, pr.mult, pr.broad)
				first, err := ctrl.Compile()
				if err != nil {
					t.Fatal(err)
				}
				// Second compilation covers the VNH-reuse path, where the
				// fresh class list carries tags over from the committed one.
				second, err := ctrl.Compile()
				if err != nil {
					t.Fatal(err)
				}
				return first, second
			}

			refFirst, refSecond := compileTwice(1)
			for _, workers := range []int{2, 4, -1} {
				gotFirst, gotSecond := compileTwice(workers)
				for pass, pair := range [][2]*core.CompileResult{{refFirst, gotFirst}, {refSecond, gotSecond}} {
					want, got := pair[0], pair[1]
					if !reflect.DeepEqual(want.Classifier.Rules, got.Classifier.Rules) {
						t.Fatalf("parallelism=%d pass=%d: classifier differs from sequential (%d vs %d rules)",
							workers, pass, len(want.Classifier.Rules), len(got.Classifier.Rules))
					}
					if !reflect.DeepEqual(want.Rules, got.Rules) {
						t.Fatalf("parallelism=%d pass=%d: flattened rules differ from sequential (%d vs %d)",
							workers, pass, len(want.Rules), len(got.Rules))
					}
					if !reflect.DeepEqual(want.FECs, got.FECs) {
						t.Fatalf("parallelism=%d pass=%d: equivalence classes differ from sequential (%d vs %d)",
							workers, pass, len(want.FECs), len(got.FECs))
					}
				}
			}
		})
	}
}

// TestParallelCompileStress runs the full concurrent workload — parallel
// background compilations, fast-path route churn, live traffic through a
// software switch whose tables both stages install into — under -race. This
// is the integration companion to TestCompileRouteChangeRace: that test
// pins down the original lock-discipline bug minimally; this one exercises
// the whole two-stage pipeline the way the daemon drives it.
func TestParallelCompileStress(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency stress test")
	}
	ctrl, ex := newStressController(t, 11, -1)
	rs := ctrl.RouteServer()
	flippable := flippablePrefixes(ex)
	if len(flippable) == 0 {
		t.Fatal("no multi-homed prefixes in the stress exchange")
	}

	// A software switch receiving both rule bands, with every participant
	// port attached.
	sw := dataplane.NewSwitch(1)
	ports := make([]uint16, 0)
	for _, m := range ex.Members {
		p, ok := ctrl.Participant(m.ID)
		if !ok {
			t.Fatalf("participant %q not registered", m.ID)
		}
		for _, port := range p.Ports {
			sw.AttachPort(port.Number, func([]byte) {})
			ports = append(ports, port.Number)
		}
	}
	if len(ports) == 0 {
		t.Fatal("no physical ports")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Background pass: recompile and swap the switch's base band.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := ctrl.Compile()
			if err != nil {
				t.Error(err)
				return
			}
			if err := core.InstallBase(sw, res); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Quick stage: route churn through the fast path, rules installed above
	// the base band.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pi := flippable[i%len(flippable)]
			p := ex.Prefixes[pi]
			mi := ex.AnnouncersOf[p][0]
			owner := ex.Members[mi].ID
			touched, err := rs.Withdraw(owner, p)
			if err != nil {
				t.Error(err)
				return
			}
			fast, err := ctrl.FastReact(touched)
			if err != nil {
				t.Error(err)
				return
			}
			if err := core.InstallFast(sw, fast); err != nil {
				t.Error(err)
				return
			}
			if _, err := rs.Advertise(owner, ex.RouteFor(mi, p, 0)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Data plane: frames traversing the switch while its tables churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := netutil.MustParseMAC("02:aa:00:00:00:01")
		dst := netutil.MustParseMAC("02:aa:00:00:00:02")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := ex.Prefixes[i%len(ex.Prefixes)]
			frame := packet.NewUDP(src, dst, p.Addr().Next(), p.Addr().Next(),
				uint16(1024+i%1000), 80, []byte("stress")).Serialize()
			if err := sw.Inject(ports[i%len(ports)], frame); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	time.Sleep(time.Second)
	close(stop)
	wg.Wait()
}
