package workload

import (
	"math/rand"
	"testing"
	"time"

	"sdx/internal/core"
	"sdx/internal/routeserver"
)

func TestGenerateExchangeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ex := GenerateExchange(rng, 50, 2000)
	if len(ex.Members) != 50 || len(ex.Prefixes) != 2000 {
		t.Fatalf("members=%d prefixes=%d", len(ex.Members), len(ex.Prefixes))
	}
	// Every prefix has at least one announcer; primary is first.
	for _, p := range ex.Prefixes {
		if len(ex.AnnouncersOf[p]) == 0 {
			t.Fatalf("prefix %v has no announcer", p)
		}
	}
	// Port numbers unique.
	seen := map[uint16]bool{}
	for _, m := range ex.Members {
		if len(m.Ports) == 0 {
			t.Fatalf("member %s has no ports", m.ID)
		}
		for _, port := range m.Ports {
			if seen[port.Number] {
				t.Fatalf("duplicate port %d", port.Number)
			}
			seen[port.Number] = true
		}
	}
	// Top 5% get two ports.
	if len(ex.Members[0].Ports) != 2 || len(ex.Members[49].Ports) != 1 {
		t.Error("multi-port assignment wrong")
	}
}

func TestAnnouncementSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ex := GenerateExchange(rng, 200, 20000)
	// The top 5% of members should announce a large share (Zipf shape);
	// count primary announcements per member.
	counts := make([]int, len(ex.Members))
	for _, anns := range ex.AnnouncersOf {
		counts[anns[0]]++
	}
	top := 0
	for i := 0; i < 10; i++ {
		top += counts[i]
	}
	if frac := float64(top) / 20000; frac < 0.4 {
		t.Errorf("top 5%% of members announce only %.0f%% of prefixes; want heavy skew", frac*100)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := GenerateExchange(rand.New(rand.NewSource(7)), 30, 500)
	b := GenerateExchange(rand.New(rand.NewSource(7)), 30, 500)
	for i := range a.Members {
		if a.Members[i].ID != b.Members[i].ID || a.Members[i].Class != b.Members[i].Class ||
			len(a.Members[i].Announced) != len(b.Members[i].Announced) {
			t.Fatalf("member %d differs between runs", i)
		}
	}
}

func TestPopulateAndPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ex := GenerateExchange(rng, 40, 800)
	ctrl := core.NewController(routeserver.New(nil), core.DefaultOptions())
	if err := ex.Populate(ctrl); err != nil {
		t.Fatal(err)
	}
	if got := len(ctrl.RouteServer().Prefixes()); got != 800 {
		t.Fatalf("route server has %d prefixes, want 800", got)
	}
	n, err := InstallPolicies(rng, ex, ctrl, DefaultPolicyMix())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no policies installed")
	}
	res, err := ctrl.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PrefixGroups == 0 {
		t.Error("policy mix should produce prefix groups")
	}
	if res.Stats.PrefixGroups >= 800 {
		t.Errorf("groups (%d) should be far below prefixes (800)", res.Stats.PrefixGroups)
	}
	if res.Stats.FlowRules == 0 {
		t.Error("no flow rules compiled")
	}
}

func TestPrimaryAnnouncerWinsDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ex := GenerateExchange(rng, 20, 200)
	ctrl := core.NewController(routeserver.New(nil), core.DefaultOptions())
	if err := ex.Populate(ctrl); err != nil {
		t.Fatal(err)
	}
	rs := ctrl.RouteServer()
	checked := 0
	for _, p := range ex.Prefixes[:50] {
		anns := ex.AnnouncersOf[p]
		if len(anns) < 2 {
			continue
		}
		first, _ := rs.BestTwoIn("", p)
		if first != ex.Members[anns[0]].ID {
			t.Errorf("prefix %v: best advertiser %v, want primary %v", p, first, ex.Members[anns[0]].ID)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no multi-homed prefixes in sample")
	}
}

func TestGenerateTraceStats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ex := GenerateExchange(rng, 50, 5000)
	opts := DefaultTraceOptions()
	opts.Duration = 24 * time.Hour
	bursts := GenerateTrace(rng, ex, opts)
	if len(bursts) < 100 {
		t.Fatalf("only %d bursts generated", len(bursts))
	}
	st := ComputeTraceStats(bursts, len(ex.Prefixes))

	// Table 1 calibration targets.
	if st.BurstSizeP75 > 3 {
		t.Errorf("75th percentile burst size = %d, want ≤ 3", st.BurstSizeP75)
	}
	if st.InterArrivalP25 < 5*time.Second {
		t.Errorf("25th percentile inter-arrival = %v, want ≥ ~10 s", st.InterArrivalP25)
	}
	if st.InterArrivalP50 < 30*time.Second {
		t.Errorf("median inter-arrival = %v, want around a minute", st.InterArrivalP50)
	}
	if st.FracPrefixesUpdated > opts.FracPrefixesUpdated+0.01 {
		t.Errorf("%.1f%% of prefixes updated, want ≤ %.1f%%",
			st.FracPrefixesUpdated*100, opts.FracPrefixesUpdated*100)
	}
	// Updates only touch the updatable subset and name real announcers.
	for _, b := range bursts[:10] {
		for _, u := range b.Updates {
			if !containsInt(ex.AnnouncersOf[u.Prefix], u.Member) {
				t.Fatalf("update names non-announcer member %d for %v", u.Member, u.Prefix)
			}
		}
	}
	// Bursts are time-ordered.
	for i := 1; i < len(bursts); i++ {
		if bursts[i].At <= bursts[i-1].At {
			t.Fatal("bursts out of order")
		}
	}
}

func TestBurstSizeDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	atMost3 := 0
	const n = 20000
	sawLarge := false
	for i := 0; i < n; i++ {
		s := burstSize(rng)
		if s <= 3 {
			atMost3++
		}
		if s > 500 {
			sawLarge = true
		}
	}
	frac := float64(atMost3) / n
	if frac < 0.70 || frac > 0.80 {
		t.Errorf("P(burst ≤ 3) = %.3f, want ≈ 0.75", frac)
	}
	_ = sawLarge // the heavy tail is rare; not asserting it in 20k draws
}

func TestProfiles(t *testing.T) {
	ps := Profiles()
	if len(ps) != 3 || ps[0].Name != "AMS-IX" {
		t.Fatalf("profiles = %+v", ps)
	}
	for _, p := range ps {
		if p.Prefixes < 500000 || p.FracPrefixesUpdated < 0.09 || p.FracPrefixesUpdated > 0.14 {
			t.Errorf("profile %s out of Table 1 range: %+v", p.Name, p)
		}
	}
}

func TestClassString(t *testing.T) {
	if Eyeball.String() != "eyeball" || Transit.String() != "transit" || Content.String() != "content" {
		t.Error("class names wrong")
	}
}
