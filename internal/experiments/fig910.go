package experiments

import (
	"net/netip"
	"sort"
	"time"

	"sdx/internal/workload"
)

// Fig9Point is one point of Figure 9: the additional forwarding rules the
// fast path installs after a burst of BGP updates of a given size.
type Fig9Point struct {
	Participants    int
	BurstSize       int
	AdditionalRules int
}

// Fig9Result reproduces Figure 9.
type Fig9Result struct {
	Points []Fig9Point
}

// Fig9 measures the worst case the paper plots: every update in the burst
// changes a best path, forcing a fresh virtual next hop and fast-path rules
// for each affected prefix.
func Fig9(cfg Config, participantCounts []int, burstSizes []int) (*Fig9Result, error) {
	if len(participantCounts) == 0 {
		participantCounts = []int{100, 200, 300}
	}
	if len(burstSizes) == 0 {
		burstSizes = []int{0, 20, 40, 60, 80, 100}
	}
	res := &Fig9Result{}
	cfg.printf("Figure 9: additional forwarding rules vs burst size (worst case)\n")
	cfg.printf("%5s %10s %12s\n", "parts", "burst", "extra rules")
	for _, n := range participantCounts {
		rng := cfg.rng()
		ex, ctrl, err := buildExchange(rng, n, cfg.scale(4000), workload.DefaultPolicyMix())
		if err != nil {
			return nil, err
		}
		if _, err := ctrl.Compile(); err != nil {
			return nil, err
		}
		rs := ctrl.RouteServer()
		for _, size := range burstSizes {
			// Worst-case burst: withdraw the best route of `size` distinct
			// multi-homed prefixes so each flips its best path.
			var touched []netip.Prefix
			flipped := 0
			for _, p := range ex.Prefixes {
				if flipped == size {
					break
				}
				anns := ex.AnnouncersOf[p]
				if len(anns) < 2 {
					continue
				}
				t, err := rs.Withdraw(ex.Members[anns[0]].ID, p)
				if err != nil {
					return nil, err
				}
				touched = append(touched, t...)
				flipped++
			}
			fast, err := ctrl.FastReact(touched)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, Fig9Point{
				Participants:    n,
				BurstSize:       size,
				AdditionalRules: len(fast.Rules),
			})
			cfg.printf("%5d %10d %12d\n", n, size, len(fast.Rules))
			// Restore the withdrawn routes and re-baseline for the next size.
			for _, p := range ex.Prefixes {
				anns := ex.AnnouncersOf[p]
				if len(anns) < 2 {
					continue
				}
				if _, ok := rs.AdvertisedRoute(ex.Members[anns[0]].ID, p); !ok {
					if _, err := rs.Advertise(ex.Members[anns[0]].ID, ex.RouteFor(anns[0], p, 0)); err != nil {
						return nil, err
					}
				}
			}
			if _, err := ctrl.Compile(); err != nil { // background pass resets fast state
				return nil, err
			}
		}
	}
	cfg.printf("paper: linear growth; slope scales with the number of participants\n")
	cfg.printf("       with installed policies (~3000 rules at 100 updates / 300 parts)\n")
	return res, nil
}

// Fig10Result reproduces Figure 10: the CDF of the time to process a single
// BGP update through the fast path.
type Fig10Result struct {
	Participants []int
	// Samples[n] holds the per-update latencies for n participants.
	Samples map[int][]time.Duration
	// CDF rows at the canonical quantiles.
	P50, P90, P99 map[int]time.Duration
}

// Fig10 processes single-prefix update events one at a time and records the
// quick-stage latency for each, for the paper's 100/200/300 participant
// populations.
func Fig10(cfg Config, participantCounts []int, updates int) (*Fig10Result, error) {
	if len(participantCounts) == 0 {
		participantCounts = []int{100, 200, 300}
	}
	if updates == 0 {
		updates = 150
	}
	res := &Fig10Result{
		Participants: participantCounts,
		Samples:      make(map[int][]time.Duration),
		P50:          make(map[int]time.Duration),
		P90:          make(map[int]time.Duration),
		P99:          make(map[int]time.Duration),
	}
	cfg.printf("Figure 10: time to process a single BGP update (fast path)\n")
	cfg.printf("%5s %10s %10s %10s\n", "parts", "P50", "P90", "P99")
	for _, n := range participantCounts {
		rng := cfg.rng()
		ex, ctrl, err := buildExchange(rng, n, cfg.scale(4000), workload.DefaultPolicyMix())
		if err != nil {
			return nil, err
		}
		if _, err := ctrl.Compile(); err != nil {
			return nil, err
		}
		rs := ctrl.RouteServer()
		var samples []time.Duration
		done := 0
		for _, p := range ex.Prefixes {
			if done == updates {
				break
			}
			anns := ex.AnnouncersOf[p]
			if len(anns) < 2 {
				continue
			}
			owner := ex.Members[anns[0]].ID
			touched, err := rs.Withdraw(owner, p)
			if err != nil {
				return nil, err
			}
			fast, err := ctrl.FastReact(touched)
			if err != nil {
				return nil, err
			}
			samples = append(samples, fast.Elapsed)
			// Restore for independence of samples.
			if _, err := rs.Advertise(owner, ex.RouteFor(anns[0], p, 0)); err != nil {
				return nil, err
			}
			done++
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		res.Samples[n] = samples
		res.P50[n] = quantile(samples, 0.50)
		res.P90[n] = quantile(samples, 0.90)
		res.P99[n] = quantile(samples, 0.99)
		cfg.printf("%5d %10s %10s %10s\n", n,
			res.P50[n].Round(time.Microsecond),
			res.P90[n].Round(time.Microsecond),
			res.P99[n].Round(time.Microsecond))
	}
	cfg.printf("paper: sub-second for all updates; <100 ms most of the time\n")
	return res, nil
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
