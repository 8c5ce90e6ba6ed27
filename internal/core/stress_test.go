package core_test

import (
	"math/rand"
	"net/netip"
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

// newStressController builds a small but policy-rich exchange for the
// concurrency tests: large enough that Compile takes a few milliseconds (so
// goroutines genuinely overlap), small enough to iterate many times.
func newStressController(t testing.TB, seed int64) (*core.Controller, *workload.Exchange) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ex := workload.GenerateExchange(rng, 40, 600)
	ctrl := core.NewController(routeserver.New(nil), core.DefaultOptions())
	if err := ex.Populate(ctrl); err != nil {
		t.Fatal(err)
	}
	mix := workload.DefaultPolicyMix()
	mix.Multiplier = 2
	if _, err := workload.InstallPolicies(rng, ex, ctrl, mix); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Compile(); err != nil {
		t.Fatal(err)
	}
	return ctrl, ex
}

// flippablePrefixes returns prefixes with at least two announcers, whose
// withdrawal flips a best route (and so exercises the fast path).
func flippablePrefixes(ex *workload.Exchange) []int {
	var out []int
	for i, p := range ex.Prefixes {
		if len(ex.AnnouncersOf[p]) >= 2 {
			out = append(out, i)
		}
	}
	return out
}

// TestCompileRouteChangeRace is the minimal regression test for the
// Compile lock-discipline bug: the seed code ran the whole compilation —
// including FEC-table replacement, VNH-pool releases, and the fast-path
// reset — under c.mu.RLock(), so a concurrent FastReact (also a
// read-lock holder) raced with it on the shared VNH pool. Run with -race:
// the pre-fix code fails here with a data race in netutil.IPPool.
func TestCompileRouteChangeRace(t *testing.T) {
	ctrl, ex := newStressController(t, 7)
	rs := ctrl.RouteServer()
	flippable := flippablePrefixes(ex)
	if len(flippable) == 0 {
		t.Fatal("no multi-homed prefixes in the stress exchange")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Background pass: full recompilations in a tight loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ctrl.Compile(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Quick stage: batched route churn through the fast path. Batching
	// matters: FastReact allocates one VNH per affected prefix and
	// records fast-path state only once at the end, so a burst keeps many
	// pool accesses in flight while the background pass runs.
	const batch = 32
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i += batch {
			select {
			case <-stop:
				return
			default:
			}
			var touched []netip.Prefix
			var idx []int
			for k := 0; k < batch; k++ {
				pi := flippable[(i+k)%len(flippable)]
				idx = append(idx, pi)
				p := ex.Prefixes[pi]
				owner := ex.Members[ex.AnnouncersOf[p][0]].ID
				tp, err := rs.Withdraw(owner, p)
				if err != nil {
					t.Error(err)
					return
				}
				touched = append(touched, tp...)
			}
			if _, err := ctrl.FastReact(touched); err != nil {
				t.Error(err)
				return
			}
			for _, pi := range idx {
				p := ex.Prefixes[pi]
				mi := ex.AnnouncersOf[p][0]
				if _, err := rs.Advertise(ex.Members[mi].ID, ex.RouteFor(mi, p, 0)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	// Monitoring reader: a concurrent observer of the FEC table (what a
	// stats endpoint or the ARP responder does).
	// On a single-CPU box the lock contention this adds also forces
	// scheduler switches inside the compile commit, making the pre-fix
	// pool race show up reliably under -race.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = ctrl.FECs()
		}
	}()

	time.Sleep(time.Second)
	close(stop)
	wg.Wait()
}

// buildExchangeOn constructs a populated controller on a caller-built route
// server from a deterministic seed; it also returns the exchange and the rng
// (positioned after policy installation) for tests that go on to generate a
// trace.
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

// TestConcurrentCompileStress runs the full concurrent workload —
// background compilations, fast-path route churn, live traffic through a
// software switch whose tables both stages install into — under -race. This
// is the integration companion to TestCompileRouteChangeRace: that test
// pins down the original lock-discipline bug minimally; this one exercises
// the whole two-stage pipeline the way the daemon drives it.
func TestConcurrentCompileStress(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency stress test")
	}
	ctrl, ex := newStressController(t, 11)
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
