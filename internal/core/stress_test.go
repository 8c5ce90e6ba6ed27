package core_test

import (
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"sdx/internal/core"
	"sdx/internal/routeserver"
	"sdx/internal/workload"
)

// newStressController builds a small but policy-rich exchange for the
// concurrency tests: large enough that Compile takes a few milliseconds (so
// goroutines genuinely overlap), small enough to iterate many times.
func newStressController(t testing.TB, seed int64, parallelism int) (*core.Controller, *workload.Exchange) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ex := workload.GenerateExchange(rng, 40, 600)
	opts := core.DefaultOptions()
	opts.Compile.Parallelism = parallelism
	ctrl := core.NewController(routeserver.New(nil), opts)
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
	ctrl, ex := newStressController(t, 7, 1)
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
