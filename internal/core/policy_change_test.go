package core_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sdx/internal/core"
	"sdx/internal/policy"
	"sdx/internal/routeserver"
	"sdx/internal/workload"
)

// policyExchange is one 100 × 5k exchange (the policy_recompile benchmark's)
// with the §6.1 policy mix installed, plus a stream of fresh policy draws:
// the same generator run against a scratch controller that registers the
// participants in the same order, so virtual ports agree. Two exchanges
// built from the same seed are identical and draw identical policies.
type policyExchange struct {
	ctrl       *core.Controller
	scratch    *core.Controller
	ex         *workload.Exchange
	rng        *rand.Rand
	candidates []core.ID // participants holding a policy
}

func newPolicyExchange(tb testing.TB, seed int64) *policyExchange {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	ex := workload.GenerateExchange(rng, 100, 5000)
	p := &policyExchange{
		ctrl:    core.NewController(routeserver.New(nil), core.DefaultOptions()),
		scratch: core.NewController(routeserver.New(nil), core.DefaultOptions()),
		ex:      ex,
		rng:     rng,
	}
	if err := ex.Populate(p.ctrl); err != nil {
		tb.Fatal(err)
	}
	if _, err := workload.InstallPolicies(rng, ex, p.ctrl, workload.DefaultPolicyMix()); err != nil {
		tb.Fatal(err)
	}
	for _, m := range ex.Members {
		if err := p.scratch.AddParticipant(core.Participant{ID: m.ID, AS: m.AS, Ports: m.Ports}); err != nil {
			tb.Fatal(err)
		}
		if live, _ := p.ctrl.Participant(m.ID); live.Inbound != nil || live.Outbound != nil {
			p.candidates = append(p.candidates, m.ID)
		}
	}
	return p
}

// draw returns a fresh policy draw for one participant: the i-th candidate
// of a per-pass seeded order, as the policy_recompile workload picks them.
func (p *policyExchange) draw(tb testing.TB, i int) (core.ID, policy.Policy, policy.Policy) {
	tb.Helper()
	if _, err := workload.InstallPolicies(p.rng, p.ex, p.scratch, workload.DefaultPolicyMix()); err != nil {
		tb.Fatal(err)
	}
	if i%len(p.candidates) == 0 {
		p.rng.Shuffle(len(p.candidates), func(a, b int) {
			p.candidates[a], p.candidates[b] = p.candidates[b], p.candidates[a]
		})
	}
	id := p.candidates[i%len(p.candidates)]
	fresh, _ := p.scratch.Participant(id)
	return id, fresh.Inbound, fresh.Outbound
}

// TestPolicyChangeKeepsFECState feeds the same seeded stream of policy
// changes to two identical 100 × 5k controllers. One keeps its §4.2 state
// across SetPolicies; the other has it invalidated before every compile, so
// each of its passes is a from-scratch rebuild. After every change the two
// must produce identical flattened rules and equivalence classes, and the
// first must have compiled incrementally exactly when the change left the
// reach keys alone.
func TestPolicyChangeKeepsFECState(t *testing.T) {
	const changes = 120
	inc := newPolicyExchange(t, 1)
	full := newPolicyExchange(t, 1)
	if _, err := inc.ctrl.Compile(); err != nil {
		t.Fatal(err)
	}
	if _, err := full.ctrl.Compile(); err != nil {
		t.Fatal(err)
	}
	keyChanges := 0
	for i := 0; i < changes; i++ {
		before := core.ReachKeys(inc.ctrl)
		id, in, out := inc.draw(t, i)
		fid, fin, fout := full.draw(t, i)
		if fid != id {
			t.Fatalf("change %d: twins drew %s and %s", i, id, fid)
		}
		if err := inc.ctrl.SetPolicies(id, in, out); err != nil {
			t.Fatal(err)
		}
		if err := full.ctrl.SetPolicies(fid, fin, fout); err != nil {
			t.Fatal(err)
		}
		keysChanged := !slices.Equal(before, core.ReachKeys(inc.ctrl))
		if keysChanged {
			keyChanges++
		}

		core.InvalidateFECState(full.ctrl)
		fres, err := full.ctrl.Compile()
		if err != nil {
			t.Fatalf("change %d: full compile: %v", i, err)
		}
		ires, err := inc.ctrl.Compile()
		if err != nil {
			t.Fatalf("change %d: incremental compile: %v", i, err)
		}
		if fres.Stats.Incremental {
			t.Fatalf("change %d: the invalidated twin compiled incrementally", i)
		}
		if ires.Stats.Incremental == keysChanged {
			t.Fatalf("change %d (%s): incremental=%v, but the reach keys changed=%v",
				i, id, ires.Stats.Incremental, keysChanged)
		}
		if !reflect.DeepEqual(ires.FECs, fres.FECs) {
			t.Fatalf("change %d (%s): equivalence classes diverged (%d kept vs %d rebuilt)",
				i, id, len(ires.FECs), len(fres.FECs))
		}
		if !reflect.DeepEqual(ires.Rules, fres.Rules) {
			t.Fatalf("change %d (%s): flattened rules diverged (%d kept vs %d rebuilt)",
				i, id, len(ires.Rules), len(fres.Rules))
		}
	}
	if keyChanges == 0 || keyChanges == changes {
		t.Fatalf("%d of %d changes altered the reach keys; the stream must exercise both paths",
			keyChanges, changes)
	}
	t.Logf("%d of %d policy changes altered the reach keys", keyChanges, changes)
}

// BenchmarkPolicyRecompile is one configuration change at 100 participants ×
// 5k prefixes (seed 1, the §6.1 policy mix): SetPolicies with a fresh policy
// for one participant, then Compile. Each participant that has a policy
// alternates between two draws, round-robin, so every operation changes one
// participant's policy. full/op is the share of compiles that had to rebuild
// the §4.2 state because the change altered the reach keys.
func BenchmarkPolicyRecompile(b *testing.B) {
	p := newPolicyExchange(b, 1)
	type draw struct{ in, out policy.Policy }
	drawA := make(map[core.ID]draw, len(p.candidates))
	for _, id := range p.candidates {
		live, _ := p.ctrl.Participant(id)
		drawA[id] = draw{live.Inbound, live.Outbound}
	}
	if _, err := workload.InstallPolicies(p.rng, p.ex, p.scratch, workload.DefaultPolicyMix()); err != nil {
		b.Fatal(err)
	}
	drawB := make(map[core.ID]draw, len(p.candidates))
	for _, id := range p.candidates {
		fresh, _ := p.scratch.Participant(id)
		drawB[id] = draw{fresh.Inbound, fresh.Outbound}
	}
	if _, err := p.ctrl.Compile(); err != nil {
		b.Fatal(err)
	}
	fulls := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := p.candidates[i%len(p.candidates)]
		d := drawB[id]
		if (i/len(p.candidates))%2 == 1 {
			d = drawA[id]
		}
		if err := p.ctrl.SetPolicies(id, d.in, d.out); err != nil {
			b.Fatal(err)
		}
		res, err := p.ctrl.Compile()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Stats.Incremental {
			fulls++
		}
	}
	b.ReportMetric(float64(fulls)/float64(b.N), "full/op")
}
