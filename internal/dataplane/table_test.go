package dataplane

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"

	"sdx/internal/netutil"
	"sdx/internal/openflow"
	"sdx/internal/policy"
)

// lookupLinear is the un-indexed, un-cached reference lookup: the first rule
// of ordered, a snapshot of the table in table order (FlowTable.ordered),
// covering pkt. The equivalence property tests use it as the oracle for the
// fast paths, taking the snapshot once per write rather than per lookup.
func lookupLinear(ordered []*FlowEntry, pkt policy.Packet) (*FlowEntry, bool) {
	for _, e := range ordered {
		if e.Match.Covers(pkt) {
			return e, true
		}
	}
	return nil, false
}

// checkTableInvariants verifies the table's internal structure: every byRule
// key is its entry's (match, priority), and every byRule entry sits in
// exactly one index bucket — the one its match selects — with every bucket
// strictly in table order with a cleared tail, and no empty map bucket.
func checkTableInvariants(ft *FlowTable) error {
	ft.mu.RLock()
	defer ft.mu.RUnlock()
	for k, e := range ft.byRule {
		if k != (ruleKey{e.Match, e.Priority}) {
			return fmt.Errorf("byRule maps %v/%d to %v", k.match, k.priority, e)
		}
	}
	seen := make(map[*FlowEntry]bool, len(ft.byRule))
	bucket := func(name string, list []*FlowEntry, belongs func(*FlowEntry) bool) error {
		if err := checkOrdered(name, list); err != nil {
			return err
		}
		for _, e := range list {
			if !belongs(e) {
				return fmt.Errorf("%s holds %v, which belongs elsewhere", name, e)
			}
			if seen[e] {
				return fmt.Errorf("%v sits in more than one bucket", e)
			}
			if ft.byRule[ruleKey{e.Match, e.Priority}] != e {
				return fmt.Errorf("%s holds %v, which is not installed", name, e)
			}
			seen[e] = true
		}
		return nil
	}
	for mac, list := range ft.byDstMAC {
		if len(list) == 0 {
			return fmt.Errorf("empty dst-MAC bucket %v", mac)
		}
		if err := bucket(fmt.Sprintf("dst-MAC bucket %v", mac), list, func(e *FlowEntry) bool {
			m, ok := e.Match.GetDstMAC()
			return ok && m == mac
		}); err != nil {
			return err
		}
	}
	for p, list := range ft.byPort {
		if len(list) == 0 {
			return fmt.Errorf("empty in-port bucket %d", p)
		}
		if err := bucket(fmt.Sprintf("in-port bucket %d", p), list, func(e *FlowEntry) bool {
			_, mac := e.Match.GetDstMAC()
			q, ok := e.Match.GetPort()
			return !mac && ok && q == p
		}); err != nil {
			return err
		}
	}
	if err := bucket("residual", ft.residual, func(e *FlowEntry) bool {
		_, mac := e.Match.GetDstMAC()
		_, port := e.Match.GetPort()
		return !mac && !port
	}); err != nil {
		return err
	}
	if len(seen) != len(ft.byRule) {
		return fmt.Errorf("buckets hold %d entries, byRule %d", len(seen), len(ft.byRule))
	}
	return nil
}

// checkOrdered reports a list out of strict table order, or one whose
// backing array past its length still points at entries.
func checkOrdered(name string, list []*FlowEntry) error {
	for i := 1; i < len(list); i++ {
		if !less(list[i-1], list[i]) {
			return fmt.Errorf("%s out of order at %d: %v before %v", name, i, list[i-1], list[i])
		}
	}
	if n := liveTail(list); n > 0 {
		return fmt.Errorf("%s keeps %d entries reachable past its length", name, n)
	}
	return nil
}

// liveTail counts the non-nil pointers between len(list) and cap(list).
func liveTail(list []*FlowEntry) int {
	n := 0
	for _, e := range list[len(list):cap(list)] {
		if e != nil {
			n++
		}
	}
	return n
}

// modelRule is one rule of the reference table model.
type modelRule struct {
	match    policy.Match
	priority uint16
	cookie   uint64
	actions  []openflow.Action
	order    uint64
}

// tableModel is a reference flow table that shares no code or state with
// FlowTable: a plain slice, its own installation counter, and a from-scratch
// sort whenever it is read.
type tableModel struct {
	rules []modelRule
	seq   uint64
}

func (m *tableModel) add(e *FlowEntry) {
	for i, r := range m.rules {
		if r.match == e.Match && r.priority == e.Priority {
			m.rules[i].cookie, m.rules[i].actions = e.Cookie, e.Actions
			return
		}
	}
	m.seq++
	m.rules = append(m.rules, modelRule{e.Match, e.Priority, e.Cookie, e.Actions, m.seq})
}

func (m *tableModel) delete(match policy.Match, priority uint16, strict bool) int {
	var kept []modelRule
	for _, r := range m.rules {
		if strict && r.match == match && r.priority == priority || !strict && match.Subsumes(r.match) {
			continue
		}
		kept = append(kept, r)
	}
	removed := len(m.rules) - len(kept)
	m.rules = kept
	return removed
}

// firstCover returns the cookie of the first rule in sorted covering pkt.
func firstCover(sorted []modelRule, pkt policy.Packet) (uint64, bool) {
	for _, r := range sorted {
		if r.match.Covers(pkt) {
			return r.cookie, true
		}
	}
	return 0, false
}

func (m *tableModel) sorted() []modelRule {
	out := slices.Clone(m.rules)
	sort.Slice(out, func(i, j int) bool {
		if out[i].priority != out[j].priority {
			return out[i].priority > out[j].priority
		}
		return out[i].order < out[j].order
	})
	return out
}

// stripeMate returns a MAC other than mac, outside randMatch's dst-MAC
// pool, whose generation stripe is mac's.
func stripeMate(mac netutil.MAC) netutil.MAC {
	for v := uint32(1 << 16); ; v++ {
		if c := netutil.VMAC(v); stripeOf(c) == stripeOf(mac) {
			return c
		}
	}
}

// modelProbes is the fixed probe set of TestFlowTableMutationModel: packets
// to a dst MAC the random rules name, to two distinct MACs that share a
// generation stripe (the second named only by the rules the test rewrites
// to it), and to a MAC no rule names, across ports, dst ports and dst IPs
// the rules constrain. No two probes share a microflow slot, so a second
// pass over them is answered entirely by the caches.
func modelProbes(mate netutil.MAC) []policy.Packet {
	var probes []policy.Packet
	slots := make(map[uint64]bool)
	for _, mac := range []netutil.MAC{netutil.VMAC(0), netutil.VMAC(1), mate, netutil.VMAC(7)} {
		for _, port := range []uint16{1, 3} {
			for _, dport := range []uint16{80, 81} {
				for _, octet := range []byte{0, 1} {
					pkt := policy.Packet{Port: port, SrcMAC: netutil.VMAC(100), DstMAC: mac, EthType: 0x0800,
						SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, 1}), DstIP: netip.AddrFrom4([4]byte{10, octet, 0, 1}),
						Proto: 17, SrcPort: 4000, DstPort: dport}
					for slots[microflowIndex(pkt)] { // no rule constrains the source port
						pkt.SrcPort++
					}
					slots[microflowIndex(pkt)] = true
					probes = append(probes, pkt)
				}
			}
		}
	}
	return probes
}

// TestFlowTableMutationModel drives seeded random writes — Add, AddBatch
// with in-batch duplicates and replacements, strict and wildcard Delete,
// Clear — into a FlowTable and a reference model side by side. After every
// step Entries() must equal the model rule for rule (match, priority,
// cookie, actions, position) and the table's internal invariants must hold.
// Then a fixed probe set goes through LookupBatch twice — the first pass may
// populate the caches, the second must be served from them — and both
// passes must return the model's first covering rule: a write that fails to
// invalidate a cached flow it changes shows up as a stale answer.
func TestFlowTableMutationModel(t *testing.T) {
	mate := stripeMate(netutil.VMAC(1))
	probes := modelProbes(mate)
	sizes := make([]int, len(probes))
	for i := range sizes {
		sizes[i] = 1
	}
	out := make([]*FlowEntry, len(probes))
	// match draws a random rule match; some that name VMAC(1) name its
	// stripe mate instead.
	match := func(rng *rand.Rand) policy.Match {
		m := randMatch(rng)
		if mac, ok := m.GetDstMAC(); ok && mac == netutil.VMAC(1) && rng.Intn(2) == 0 {
			m = m.DstMAC(mate)
		}
		return m
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ft := NewFlowTable()
		var model tableModel
		var nextCookie uint64
		fresh := func(m policy.Match, prio uint16) *FlowEntry {
			nextCookie++
			return &FlowEntry{Match: m, Priority: prio, Cookie: nextCookie,
				Actions: []openflow.Action{openflow.Output(uint16(rng.Intn(4)))}}
		}
		// installed returns a random installed entry (nil on an empty
		// table), drawn from the step's table-ordered snapshot so each
		// seed's draws do not depend on map iteration order. Every draw
		// precedes the step's write.
		var snap []*FlowEntry
		installed := func() *FlowEntry {
			if len(snap) == 0 {
				return nil
			}
			return snap[rng.Intn(len(snap))]
		}
		for step := 0; step < 600; step++ {
			snap = ft.ordered()
			var op string
			switch r := rng.Intn(20); {
			case r < 5:
				op = "Add"
				e := fresh(match(rng), uint16(1+rng.Intn(8)))
				if old := installed(); old != nil && rng.Intn(3) == 0 {
					e = fresh(old.Match, old.Priority) // replacement
				}
				ft.Add(e)
				model.add(e)
			case r < 11:
				op = "AddBatch"
				// Sorts of up to 12 elements are insertion sorts, which are
				// stable; larger batches make the sort rely on the tie-break.
				n := 1 + rng.Intn(12)
				if rng.Intn(4) == 0 {
					n = 13 + rng.Intn(48)
				}
				batch := make([]*FlowEntry, 0, n)
				for len(batch) < n {
					old := installed()
					switch k := rng.Intn(10); {
					case k < 2 && len(batch) > 0: // replaces a rule added earlier in this batch
						prev := batch[rng.Intn(len(batch))]
						batch = append(batch, fresh(prev.Match, prev.Priority))
					case k < 3 && len(batch) > 0: // the same entry twice
						batch = append(batch, batch[rng.Intn(len(batch))])
					case k < 5 && old != nil: // replaces an installed rule
						batch = append(batch, fresh(old.Match, old.Priority))
					case k < 6 && old != nil: // re-adds an installed entry
						batch = append(batch, old)
					default:
						batch = append(batch, fresh(match(rng), uint16(1+rng.Intn(8))))
					}
				}
				ft.AddBatch(batch)
				for _, e := range batch {
					model.add(e)
				}
			case r < 16:
				op = "strict Delete"
				m, prio := match(rng), uint16(1+rng.Intn(8))
				if old := installed(); old != nil && rng.Intn(4) != 0 {
					m, prio = old.Match, old.Priority
				}
				if got, want := ft.Delete(m, prio, true), model.delete(m, prio, true); got != want {
					t.Fatalf("seed %d step %d: strict Delete removed %d, model %d", seed, step, got, want)
				}
			case r < 19:
				op = "wildcard Delete"
				m := match(rng)
				if got, want := ft.Delete(m, 0, false), model.delete(m, 0, false); got != want {
					t.Fatalf("seed %d step %d: wildcard Delete removed %d, model %d", seed, step, got, want)
				}
			default:
				op = "Clear"
				ft.Clear()
				model.rules = nil
			}
			if err := checkTableInvariants(ft); err != nil {
				t.Fatalf("seed %d step %d (%s): %v\ntable:\n%s", seed, step, op, err, ft.Dump())
			}
			got, want := ft.Entries(), model.sorted()
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d (%s): table holds %d rules, model %d", seed, step, op, len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				if g.Match != w.match || g.Priority != w.priority || g.Cookie != w.cookie ||
					!reflect.DeepEqual(g.Actions, w.actions) {
					t.Fatalf("seed %d step %d (%s): rule %d = %v cookie %d, model %v priority %d cookie %d\ntable:\n%s",
						seed, step, op, i, g.String(), g.Cookie, w.match, w.priority, w.cookie, ft.Dump())
				}
			}
			for pass := 1; pass <= 2; pass++ {
				before := ft.CacheStats()
				ft.LookupBatch(probes, sizes, out)
				if st := ft.CacheStats(); pass == 2 && st.Misses != before.Misses {
					t.Fatalf("seed %d step %d (%s): %d of %d probes missed both caches on the second pass",
						seed, step, op, st.Misses-before.Misses, len(probes))
				}
				for i, pkt := range probes {
					cookie, ok := firstCover(want, pkt)
					if got := out[i]; (got != nil) != ok || ok && got.Cookie != cookie {
						t.Fatalf("seed %d step %d (%s) pass %d: probe %+v got %v, model cookie %d (ok=%v)\ntable:\n%s",
							seed, step, op, pass, pkt, got, cookie, ok, ft.Dump())
					}
				}
			}
		}
	}
}

// TestDeleteReleasesEntries: a delete must not keep the removed entries
// reachable from a bucket's backing array past the bucket's length. The
// rules spread over dst-MAC, in-port and residual buckets, and the wildcard
// Delete removes every other rule of each, so every bucket keeps a tail.
func TestDeleteReleasesEntries(t *testing.T) {
	ft := NewFlowTable()
	batch := make([]*FlowEntry, 96)
	for i := range batch {
		// Rules 2k and 2k+1 share a bucket; only the even one goes.
		m, k := policy.MatchAll.DstPort(uint16(80+i%2)), i/2
		switch k % 3 {
		case 0:
			m = m.DstMAC(netutil.VMAC(uint32(k % 4)))
		case 1:
			m = m.Port(uint16(1 + k%4))
		}
		batch[i] = &FlowEntry{Match: m.SrcPort(uint16(i)), Priority: uint16(200 - i),
			Actions: []openflow.Action{openflow.Output(3)}}
	}
	ft.AddBatch(batch)
	// liveTails sums liveTail over every bucket.
	liveTails := func() int {
		ft.mu.RLock()
		defer ft.mu.RUnlock()
		n := liveTail(ft.residual)
		for _, list := range ft.byDstMAC {
			n += liveTail(list)
		}
		for _, list := range ft.byPort {
			n += liveTail(list)
		}
		return n
	}
	if n := ft.Delete(policy.MatchAll.DstPort(80), 0, false); n != 48 {
		t.Fatalf("wildcard Delete removed %d rules, want 48", n)
	}
	if n := liveTails(); n != 0 {
		t.Fatalf("after a wildcard Delete, %d pointers past the buckets' lengths are live, want 0", n)
	}
	if n := ft.Delete(batch[1].Match, batch[1].Priority, true); n != 1 {
		t.Fatalf("strict Delete removed %d rules, want 1", n)
	}
	if n := liveTails(); n != 0 {
		t.Fatalf("after a strict Delete, %d pointers past the buckets' lengths are live, want 0", n)
	}
	if err := checkTableInvariants(ft); err != nil {
		t.Fatal(err)
	}
}

// sdxFlowMods returns n FLOW_MOD adds shaped like a compiled base table:
// rules keyed by a VMAC tag (from tag0 on), eight per tag on eight ingress
// ports, at positional priorities counting down from the top of the band.
func sdxFlowMods(n int, tag0 uint32) []*openflow.FlowMod {
	fms := make([]*openflow.FlowMod, n)
	for i := range fms {
		fms[i] = &openflow.FlowMod{
			Match:    openflow.MatchFromPolicy(policy.MatchAll.DstMAC(netutil.VMAC(tag0 + uint32(i/8))).Port(uint16(1 + i%8))),
			Command:  openflow.FlowModAdd,
			Priority: uint16(0xefff - i),
			Actions:  []openflow.Action{openflow.Output(uint16(1 + i%8))},
		}
	}
	return fms
}

// TestTableWritesAreLocal is the locality gate: one strict Delete plus a
// one-rule AddBatch costs the same number of allocations on a 1k-rule and a
// 16k-rule table, and only a handful.
func TestTableWritesAreLocal(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race: the instrumentation allocates")
	}
	var allocs []float64
	for _, n := range []int{1 << 10, 1 << 14} {
		sw := NewSwitch(1)
		if err := sw.InstallFlowMods(sdxFlowMods(n, 0)); err != nil {
			t.Fatal(err)
		}
		victim := sw.Table.Entries()[n/2]
		got := testing.AllocsPerRun(200, func() {
			if sw.Table.Delete(victim.Match, victim.Priority, true) != 1 {
				t.Fatal("strict Delete missed the installed rule")
			}
			sw.Table.AddBatch([]*FlowEntry{{Match: victim.Match, Priority: victim.Priority, Actions: victim.Actions}})
		})
		if err := checkTableInvariants(sw.Table); err != nil {
			t.Fatal(err)
		}
		t.Logf("rules=%d: %.0f allocs per strict Delete + one-rule AddBatch", n, got)
		allocs = append(allocs, got)
	}
	if allocs[0] != allocs[1] || allocs[1] > 8 {
		t.Fatalf("allocs per write = %v at 1k/16k rules, want equal and <= 8", allocs)
	}
}

// BenchmarkFlowTableDiffPush times table pushes through InstallFlowMods on
// an n-rule table, in two shapes; each iteration leaves the table at n rules.
//
//   - shape=diff, one SetBase-shaped diff: n/4 adds followed by n/4 strict
//     deletes. Iterations alternate between swapping a quarter of the base
//     out for fresh rules at the same priorities and swapping it back.
//   - shape=fast, two quick-stage-shaped pushes: fastRules adds above every
//     installed rule, then their strict deletes.
func BenchmarkFlowTableDiffPush(b *testing.B) {
	const fastRules = 10
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		base := sdxFlowMods(n, 0)
		deletes := func(fms []*openflow.FlowMod) []*openflow.FlowMod {
			out := make([]*openflow.FlowMod, len(fms))
			for i, fm := range fms {
				out[i] = &openflow.FlowMod{Match: fm.Match, Priority: fm.Priority, Command: openflow.FlowModDeleteStrict}
			}
			return out
		}
		var quarter []*openflow.FlowMod
		for i := 0; i < n; i += 4 {
			quarter = append(quarter, base[i])
		}
		others := sdxFlowMods(len(quarter), uint32(n))
		for i, fm := range others {
			fm.Priority = quarter[i].Priority
		}
		fast := sdxFlowMods(fastRules, uint32(n))
		for i, fm := range fast {
			fm.Priority = uint16(0xf000 + i)
		}
		for _, shape := range []struct {
			name   string
			pushes [][]*openflow.FlowMod
		}{
			{"diff", [][]*openflow.FlowMod{
				append(slices.Clone(others), deletes(quarter)...),
				append(slices.Clone(quarter), deletes(others)...),
			}},
			{"fast", [][]*openflow.FlowMod{fast, deletes(fast)}},
		} {
			b.Run(fmt.Sprintf("shape=%s/rules=%d", shape.name, n), func(b *testing.B) {
				sw := NewSwitch(1)
				if err := sw.InstallFlowMods(base); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, push := range shape.pushes {
						if err := sw.InstallFlowMods(push); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				if got := sw.Table.Len(); got != n {
					b.Fatalf("table holds %d rules, want %d", got, n)
				}
			})
		}
	}
}
