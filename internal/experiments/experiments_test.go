package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestTable1Shapes(t *testing.T) {
	var out strings.Builder
	res, err := Table1(Config{Seed: 7, Scale: 0.2, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		st := row.Stats
		if st.BurstSizeP75 > 3 {
			t.Errorf("%s: burst P75 = %d, want ≤3", row.Profile.Name, st.BurstSizeP75)
		}
		if st.InterArrivalP25 < 10*time.Second {
			t.Errorf("%s: inter-arrival P25 = %v, want ≥10s", row.Profile.Name, st.InterArrivalP25)
		}
		if st.InterArrivalP50 < 45*time.Second {
			t.Errorf("%s: inter-arrival P50 = %v, want ~1min", row.Profile.Name, st.InterArrivalP50)
		}
		if st.FracPrefixesUpdated > row.Profile.FracPrefixesUpdated+0.02 {
			t.Errorf("%s: %.1f%% prefixes updated, calibration target %.1f%%",
				row.Profile.Name, st.FracPrefixesUpdated*100, row.Profile.FracPrefixesUpdated*100)
		}
	}
	if !strings.Contains(out.String(), "AMS-IX") {
		t.Error("rendered output missing the AMS-IX row")
	}
}

func TestFig5aShape(t *testing.T) {
	res, err := Fig5a(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ShapeOK {
		t.Fatalf("figure 5a shape broken: %v", res.Notes)
	}
	if len(res.Series) != 1800 {
		t.Errorf("series length = %d", len(res.Series))
	}
}

func TestFig5bShape(t *testing.T) {
	res, err := Fig5b(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ShapeOK {
		t.Fatalf("figure 5b shape broken: %v", res.Notes)
	}
}

func TestFig6Shapes(t *testing.T) {
	res, err := Fig6(Config{Seed: 42}, []int{100, 300}, []int{0, 5000, 15000, 25000})
	if err != nil {
		t.Fatal(err)
	}
	byN := map[int][]Fig6Point{}
	for _, pt := range res.Points {
		byN[pt.Participants] = append(byN[pt.Participants], pt)
	}
	for n, pts := range byN {
		// Monotone in prefixes; groups far below prefixes (sub-linear).
		for i := 1; i < len(pts); i++ {
			if pts[i].PrefixGroups < pts[i-1].PrefixGroups {
				t.Errorf("N=%d: groups decreased: %+v", n, pts)
			}
		}
		last := pts[len(pts)-1]
		if last.PrefixGroups == 0 || last.PrefixGroups > last.Prefixes/5 {
			t.Errorf("N=%d: groups = %d for %d prefixes; want strong reduction",
				n, last.PrefixGroups, last.Prefixes)
		}
	}
	// More participants -> more groups at the same x.
	l100 := byN[100][len(byN[100])-1].PrefixGroups
	l300 := byN[300][len(byN[300])-1].PrefixGroups
	if l300 <= l100 {
		t.Errorf("groups(300p)=%d should exceed groups(100p)=%d", l300, l100)
	}
}

func TestFig78Shapes(t *testing.T) {
	res, err := Fig7and8(Config{Seed: 42}, []int{100, 300}, []int{2000, 5000})
	if err != nil {
		t.Fatal(err)
	}
	byN := map[int][]Fig78Point{}
	for _, pt := range res.Points {
		byN[pt.Participants] = append(byN[pt.Participants], pt)
	}
	// Figure 7: rules grow with groups, and with participants.
	for n, pts := range byN {
		for i := 1; i < len(pts); i++ {
			if pts[i].PrefixGroups > pts[i-1].PrefixGroups && pts[i].FlowRules < pts[i-1].FlowRules/2 {
				t.Errorf("N=%d: rules collapsed while groups grew: %+v", n, pts)
			}
		}
	}
	if byN[300][0].FlowRules <= byN[100][0].FlowRules {
		t.Errorf("rules at 300 participants (%d) should exceed 100 (%d)",
			byN[300][0].FlowRules, byN[100][0].FlowRules)
	}
	// Figure 8: compilation time grows with groups.
	for n, pts := range byN {
		first, last := pts[0], pts[len(pts)-1]
		if last.PrefixGroups > first.PrefixGroups && last.CompileTime < first.CompileTime/2 {
			t.Errorf("N=%d: compile time dropped sharply as groups grew", n)
		}
	}
}

func TestFig9Shapes(t *testing.T) {
	res, err := Fig9(Config{Seed: 42}, []int{100}, []int{0, 30, 60})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Points
	if pts[0].AdditionalRules != 0 {
		t.Errorf("zero burst should add zero rules: %+v", pts[0])
	}
	// Roughly linear growth: more updates, more rules.
	if !(pts[1].AdditionalRules > 0 && pts[2].AdditionalRules > pts[1].AdditionalRules) {
		t.Errorf("rules not increasing with burst size: %+v", pts)
	}
	perUpdate1 := float64(pts[1].AdditionalRules) / 30
	perUpdate2 := float64(pts[2].AdditionalRules) / 60
	if perUpdate2 > perUpdate1*2 || perUpdate1 > perUpdate2*2 {
		t.Errorf("growth far from linear: %.1f vs %.1f rules/update", perUpdate1, perUpdate2)
	}
}

func TestFig10Shapes(t *testing.T) {
	res, err := Fig10(Config{Seed: 42}, []int{100}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples[100]) == 0 {
		t.Fatal("no samples")
	}
	// Paper: sub-second for all updates at this scale.
	if res.P99[100] > time.Second {
		t.Errorf("P99 = %v, want sub-second", res.P99[100])
	}
	if res.P50[100] > 100*time.Millisecond {
		t.Errorf("P50 = %v, want <100ms at 100 participants", res.P50[100])
	}
}

func TestAblationShapes(t *testing.T) {
	res, err := Ablation(Config{Seed: 42}, 100, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	full, noDisjoint := res.Rows[0], res.Rows[1]
	if full.Stats.DisjointCat == 0 {
		t.Error("full configuration should use disjoint concatenation")
	}
	if noDisjoint.Stats.Parallel == 0 {
		t.Error("no-disjoint run should fall back to parallel composition")
	}
	if noDisjoint.FlowRules < full.FlowRules {
		t.Errorf("disabling the shortcut should not shrink the table: %d vs %d",
			noDisjoint.FlowRules, full.FlowRules)
	}
}

func TestConfigHelpers(t *testing.T) {
	c := Config{}
	if c.scale(100) != 100 {
		t.Error("zero scale should mean identity")
	}
	c.Scale = 0.1
	if c.scale(100) != 10 {
		t.Error("scale not applied")
	}
	if c.scale(5) != 1 {
		t.Error("scale should clamp to ≥1")
	}
	if c.out() == nil {
		t.Error("out() must never return nil")
	}
	if c.rng() == nil {
		t.Error("rng() must never return nil")
	}
}
