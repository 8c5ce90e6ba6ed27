package dataplane

import (
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"

	"sdx/internal/netutil"
	"sdx/internal/openflow"
	"sdx/internal/policy"
)

// randMatch draws a match from a deliberately small pool of field values so
// randomized rules overlap, collide, and replace each other.
func randMatch(rng *rand.Rand) policy.Match {
	m := policy.MatchAll
	if rng.Intn(2) == 0 {
		m = m.Port(uint16(1 + rng.Intn(4)))
	}
	if rng.Intn(2) == 0 {
		m = m.DstMAC(netutil.VMAC(uint32(rng.Intn(6))))
	}
	if rng.Intn(3) == 0 {
		m = m.SrcMAC(netutil.VMAC(uint32(100 + rng.Intn(3))))
	}
	if rng.Intn(3) == 0 {
		m = m.DstPort(uint16(80 + rng.Intn(3)))
	}
	if rng.Intn(4) == 0 {
		bits := 8 * (1 + rng.Intn(3))
		m = m.DstIP(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(rng.Intn(2)), 0, 0}), bits))
	}
	return m
}

// randPacket draws packets from the same value pools as randMatch, so most
// packets hit several candidate rules.
func randPacket(rng *rand.Rand) policy.Packet {
	return policy.Packet{
		Port:    uint16(1 + rng.Intn(4)),
		SrcMAC:  netutil.VMAC(uint32(100 + rng.Intn(3))),
		DstMAC:  netutil.VMAC(uint32(rng.Intn(6))),
		EthType: 0x0800,
		SrcIP:   netip.AddrFrom4([4]byte{10, byte(rng.Intn(2)), 0, byte(1 + rng.Intn(4))}),
		DstIP:   netip.AddrFrom4([4]byte{10, byte(rng.Intn(2)), byte(rng.Intn(2)), byte(1 + rng.Intn(4))}),
		Proto:   17,
		SrcPort: 4000,
		DstPort: uint16(80 + rng.Intn(3)),
	}
}

// TestLookupCacheEquivalence is the generation-invalidation correctness
// property: across randomized interleavings of Add, AddBatch, Delete, Clear
// and Lookup, the three-tier pipeline (microflow cache + match index) must
// select exactly the entry a linear priority scan selects — including
// repeated lookups served from the cache and lookups straddling mutations.
func TestLookupCacheEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ft := NewFlowTable()
		var snap []*FlowEntry // the table in table order, retaken after each step's write
		check := func(pkt policy.Packet) {
			t.Helper()
			got, gotOK := ft.Lookup(pkt, 1)
			want, wantOK := lookupLinear(snap, pkt)
			if gotOK != wantOK || got != want {
				t.Fatalf("seed %d: Lookup(%+v) = %v (ok=%v), linear scan = %v (ok=%v)\ntable:\n%s",
					seed, pkt, got, gotOK, want, wantOK, ft.Dump())
			}
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // single add (often replacing)
				ft.Add(&FlowEntry{
					Match:    randMatch(rng),
					Priority: uint16(1 + rng.Intn(8)),
					Actions:  []openflow.Action{openflow.Output(uint16(rng.Intn(4)))},
				})
			case op < 6: // batch add
				batch := make([]*FlowEntry, 1+rng.Intn(8))
				for i := range batch {
					batch[i] = &FlowEntry{
						Match:    randMatch(rng),
						Priority: uint16(1 + rng.Intn(8)),
						Actions:  []openflow.Action{openflow.Output(uint16(rng.Intn(4)))},
					}
				}
				ft.AddBatch(batch)
			case op < 8: // delete (strict or wildcard)
				ft.Delete(randMatch(rng), uint16(1+rng.Intn(8)), rng.Intn(2) == 0)
			case op < 9: // repeated lookups of one tuple: exercise cached hits
				pkt := randPacket(rng)
				for i := 0; i < 3; i++ {
					check(pkt)
				}
			default:
				if rng.Intn(20) == 0 {
					ft.Clear()
				}
			}
			snap = ft.ordered()
			for i := 0; i < 4; i++ {
				check(randPacket(rng))
			}
		}
		st := ft.CacheStats()
		if st.Hits == 0 {
			t.Fatalf("seed %d: property test never exercised the cache fast path", seed)
		}
	}
}

// TestFlowTableTieBreakEarliestInstalled pins the tie-break invariant on
// every lookup tier: among equal-priority overlapping rules the
// earliest-installed wins, for Add and AddBatch alike, cached and uncached.
func TestFlowTableTieBreakEarliestInstalled(t *testing.T) {
	pkt := policy.Packet{Port: 1, DstMAC: netutil.VMAC(1), DstPort: 80}
	first := &FlowEntry{Match: policy.MatchAll.Port(1), Priority: 5,
		Actions: []openflow.Action{openflow.Output(2)}}
	second := &FlowEntry{Match: policy.MatchAll.DstMAC(netutil.VMAC(1)), Priority: 5,
		Actions: []openflow.Action{openflow.Output(3)}}

	ft := NewFlowTable()
	ft.Add(first)
	ft.Add(second)
	for i := 0; i < 3; i++ { // miss then cached hits
		if e, _ := ft.Lookup(pkt, 1); e != first {
			t.Fatalf("lookup %d selected %v, want earliest-installed %v", i, e, first)
		}
	}

	ft2 := NewFlowTable()
	ft2.AddBatch([]*FlowEntry{
		{Match: policy.MatchAll.Port(1), Priority: 5, Actions: []openflow.Action{openflow.Output(2)}},
		{Match: policy.MatchAll.DstMAC(netutil.VMAC(1)), Priority: 5, Actions: []openflow.Action{openflow.Output(3)}},
	})
	if e, _ := ft2.Lookup(pkt, 1); e == nil || e.Actions[0].Port != 2 {
		t.Fatalf("AddBatch tie-break selected %v, want the batch's first rule", e)
	}
}

// TestAddBatchReplaceSemantics: AddBatch must mirror repeated Add calls for
// OFPFC_ADD replacement, including duplicates within one batch.
func TestAddBatchReplaceSemantics(t *testing.T) {
	m := policy.MatchAll.Port(1)
	ft := NewFlowTable()
	ft.Add(&FlowEntry{Match: m, Priority: 5, Actions: []openflow.Action{openflow.Output(2)}})
	ft.AddBatch([]*FlowEntry{
		{Match: m, Priority: 5, Actions: []openflow.Action{openflow.Output(3)}},
		{Match: m, Priority: 5, Actions: []openflow.Action{openflow.Output(4)}}, // same rule twice: last wins
		{Match: policy.MatchAll.Port(2), Priority: 7, Actions: []openflow.Action{openflow.Output(9)}},
	})
	if ft.Len() != 2 {
		t.Fatalf("table len = %d, want 2 (replacement must not grow the table)", ft.Len())
	}
	if e, ok := ft.Lookup(policy.Packet{Port: 1}, 0); !ok || e.Actions[0].Port != 4 {
		t.Fatalf("lookup after batched replace = %+v, want output:4", e)
	}
	// The replaced rule keeps its installation order: a later equal-priority
	// overlapping rule must still lose to it.
	ft.Add(&FlowEntry{Match: policy.MatchAll.DstPort(0), Priority: 5,
		Actions: []openflow.Action{openflow.Output(8)}})
	if e, _ := ft.Lookup(policy.Packet{Port: 1}, 0); e == nil || e.Actions[0].Port != 4 {
		t.Fatalf("replacement lost its installation order: got %v", e)
	}
}

// TestFlowTableCountersExactUnderConcurrentInject drives concurrent Inject
// through a switch — with concurrent rule churn forcing cache
// invalidations, and a concurrent Dump reader — and requires the per-rule
// and aggregate counters to be exactly the number of injected frames.
func TestFlowTableCountersExactUnderConcurrentInject(t *testing.T) {
	const (
		goroutines = 8
		perG       = 2000
	)
	sw := NewSwitch(1)
	sw.AttachPort(1, func([]byte) {})
	sw.AttachPort(2, func([]byte) {})
	// Two target rules plus a fallback; the churn rule is disjoint from the
	// injected traffic so hit counts stay deterministic.
	sw.Table.Add(&FlowEntry{Match: policy.MatchAll.Port(1).DstPort(80), Priority: 10,
		Actions: []openflow.Action{openflow.Output(2)}})
	sw.Table.Add(&FlowEntry{Match: policy.MatchAll.Port(1).DstPort(443), Priority: 10,
		Actions: []openflow.Action{openflow.Output(2)}})

	frames := [][]byte{udpFrame(80), udpFrame(443)}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var dumps atomic.Int64
	wg.Add(1)
	go func() { // table churn: invalidates the cache mid-traffic
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sw.Table.Add(&FlowEntry{Match: policy.MatchAll.Port(3).DstPort(uint16(i % 50)), Priority: 4,
				Actions: []openflow.Action{openflow.Output(2)}})
		}
	}()
	wg.Add(1)
	go func() { // concurrent dump while traffic flows
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if sw.Table.Dump() != "" {
				dumps.Add(1)
			}
		}
	}()
	var inject sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		inject.Add(1)
		go func(g int) {
			defer inject.Done()
			for i := 0; i < perG; i++ {
				if err := sw.Inject(1, frames[(g+i)%2]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	inject.Wait()
	close(stop)
	wg.Wait()

	total := goroutines * perG
	var gotPkts, gotBytes uint64
	wantBytes := uint64(total/2)*uint64(len(frames[0])) + uint64(total/2)*uint64(len(frames[1]))
	for _, e := range sw.Table.Entries() {
		if p, _ := e.Match.GetDstPort(); p == 80 || p == 443 {
			if e.Packets != uint64(total/2) {
				t.Errorf("rule %v counted %d packets, want %d", e.Match, e.Packets, total/2)
			}
			gotPkts += e.Packets
			gotBytes += e.Bytes
		}
	}
	if gotPkts != uint64(total) || gotBytes != wantBytes {
		t.Errorf("aggregate counters = %d pkts %d bytes, want %d pkts %d bytes",
			gotPkts, gotBytes, total, wantBytes)
	}
	if dumps.Load() == 0 {
		t.Error("concurrent dumper never completed a dump")
	}
	st := sw.Table.CacheStats()
	if st.Hits+st.MegaflowHits+st.Misses < uint64(total) {
		t.Errorf("cache saw %d lookups, want >= %d", st.Hits+st.Misses, total)
	}
	if st.Invalidations == 0 {
		t.Error("churn produced no cache invalidations")
	}
}

// TestInstallFlowModsBatches checks the coalescing installer: runs of adds
// land as one batch, deletes flush in order, and the same stream sent over
// ServeController (barrier last) leaves the identical table.
func TestInstallFlowModsBatches(t *testing.T) {
	sw := NewSwitch(1)
	var fms []*openflow.FlowMod
	for i := 0; i < 10; i++ {
		fms = append(fms, &openflow.FlowMod{
			Match:    openflow.MatchFromPolicy(policy.MatchAll.Port(1).DstPort(uint16(80 + i))),
			Command:  openflow.FlowModAdd,
			Priority: uint16(10 + i),
			Actions:  []openflow.Action{openflow.Output(2)},
		})
	}
	// Delete in the middle of the stream, then re-add one rule.
	fms = append(fms, &openflow.FlowMod{
		Match:   openflow.MatchFromPolicy(policy.MatchAll.Port(1).DstPort(85)),
		Command: openflow.FlowModDelete,
	})
	fms = append(fms, &openflow.FlowMod{
		Match:    openflow.MatchFromPolicy(policy.MatchAll.Port(1).DstPort(85)),
		Command:  openflow.FlowModAdd,
		Priority: 99,
		Actions:  []openflow.Action{openflow.Output(3)},
	})
	if err := sw.InstallFlowMods(fms); err != nil {
		t.Fatal(err)
	}
	if got, want := serveFlowMods(t, fms).Table.Dump(), sw.Table.Dump(); got != want {
		t.Fatalf("over ServeController the table is\n%s\nthrough InstallFlowMods\n%s", got, want)
	}
	if sw.Table.Len() != 10 {
		t.Fatalf("table len = %d, want 10", sw.Table.Len())
	}
	e, ok := sw.Table.Lookup(policy.Packet{Port: 1, DstPort: 85}, 0)
	if !ok || e.Priority != 99 || e.Actions[0].Port != 3 {
		t.Fatalf("delete/re-add ordering broken: %+v", e)
	}
	st := sw.Table.CacheStats()
	if st.Invalidations > 3 {
		t.Errorf("coalesced install invalidated %d times, want <= 3 (batch, delete, batch)", st.Invalidations)
	}
}

// serveFlowMods sends fms to a fresh switch over ServeController, then a
// barrier, and returns the switch once the barrier is answered.
func serveFlowMods(t *testing.T, fms []*openflow.FlowMod) *Switch {
	t.Helper()
	sw := NewSwitch(1)
	ctrlSide, swSide := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- sw.ServeController(swSide) }()
	ctrl := openflow.NewConn(ctrlSide)
	defer func() {
		ctrl.Close()
		<-served
	}()
	if _, err := ctrl.HandshakeController(); err != nil {
		t.Fatal(err)
	}
	for _, fm := range fms {
		if err := ctrl.SendFlowMod(fm); err != nil {
			t.Fatal(err)
		}
	}
	xid, err := ctrl.SendBarrier()
	if err != nil {
		t.Fatal(err)
	}
	if reply, err := ctrl.Recv(); err != nil || reply.Type != openflow.TypeBarrierReply || reply.XID != xid {
		t.Fatalf("barrier reply = %+v, %v", reply, err)
	}
	return sw
}

// TestMicroflowCacheStats pins the CacheStats accounting: miss, hit,
// invalidation, and the live-slot gauge across a write.
func TestMicroflowCacheStats(t *testing.T) {
	ft := NewFlowTable()
	ft.Add(&FlowEntry{Match: policy.MatchAll.Port(1), Priority: 1,
		Actions: []openflow.Action{openflow.Output(2)}})
	pkt := policy.Packet{Port: 1, DstPort: 80}
	ft.Lookup(pkt, 10) // miss, populates
	ft.Lookup(pkt, 10) // hit
	st := ft.CacheStats()
	if micro, _ := ft.CacheOccupancy(); st.Hits != 1 || st.Misses != 1 || st.Invalidations != 1 || micro != 1 {
		t.Fatalf("stats = %+v, %d live slots, want 1 hit / 1 miss / 1 invalidation / 1 slot", st, micro)
	}
	// A cached table miss is also served lock-free.
	missPkt := policy.Packet{Port: 9}
	if _, ok := ft.Lookup(missPkt, 10); ok {
		t.Fatal("unexpected match")
	}
	if _, ok := ft.Lookup(missPkt, 10); ok {
		t.Fatal("unexpected match")
	}
	st = ft.CacheStats()
	if micro, _ := ft.CacheOccupancy(); st.Hits != 2 || st.Misses != 2 || micro != 2 {
		t.Fatalf("stats after cached miss = %+v, %d live slots, want 2 hits / 2 misses / 2 slots", st, micro)
	}
	// A port-only rule names no dst MAC, so adding one invalidates every
	// slot: the gauge drops to zero, the next lookup misses, and counters on
	// the re-resolved entry keep counting.
	ft.Add(&FlowEntry{Match: policy.MatchAll.Port(2), Priority: 1,
		Actions: []openflow.Action{openflow.Output(3)}})
	st = ft.CacheStats()
	if micro, _ := ft.CacheOccupancy(); st.Invalidations != 2 || micro != 0 {
		t.Fatalf("stats after write = %+v, %d live slots, want 2 invalidations / 0 slots", st, micro)
	}
	if e, ok := ft.Lookup(pkt, 5); !ok || e.Packets != 3 || e.Bytes != 25 {
		t.Fatalf("re-resolved entry = %+v, want 3 pkts / 25 bytes", e)
	}
}

// TestWriteInvalidatesOnlyItsStripe pins the invalidation scope by the
// counters: a write whose rules name another dst MAC leaves a cached flow a
// microflow hit; a strict delete of a rule naming the flow's MAC, a
// port-only rule and Clear each make its next lookup miss.
func TestWriteInvalidatesOnlyItsStripe(t *testing.T) {
	a := netutil.VMAC(1)
	b := netutil.VMAC(2)
	for stripeOf(b) == stripeOf(a) {
		b[5]++
	}
	ruleA := &FlowEntry{Match: policy.MatchAll.Port(1).DstMAC(a), Priority: 10,
		Actions: []openflow.Action{openflow.Output(2)}}
	pktA := policy.Packet{Port: 1, DstMAC: a, DstPort: 80}
	ft := NewFlowTable()
	ft.Add(ruleA)
	// warm caches pktA's current result and returns the counters after a
	// second lookup, which must be a microflow hit.
	warm := func() CacheStats {
		t.Helper()
		ft.Lookup(pktA, 1)
		before := ft.CacheStats()
		ft.Lookup(pktA, 1)
		st := ft.CacheStats()
		if st.Hits != before.Hits+1 {
			t.Fatalf("warm lookup was not a microflow hit: %+v -> %+v", before, st)
		}
		return st
	}

	before := warm()
	ft.AddBatch([]*FlowEntry{
		{Match: policy.MatchAll.Port(1).DstMAC(b), Priority: 20, Actions: []openflow.Action{openflow.Output(3)}},
		{Match: policy.MatchAll.DstMAC(b).DstPort(80), Priority: 30, Actions: []openflow.Action{openflow.Output(4)}},
	})
	if e, _ := ft.Lookup(pktA, 1); e != ruleA {
		t.Fatalf("after a write on another MAC, lookup = %v, want %v", e, ruleA)
	}
	after := ft.CacheStats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses || after.Invalidations != before.Invalidations {
		t.Fatalf("a write on another MAC moved the flow's counters: %+v -> %+v", before, after)
	}

	for _, w := range []struct {
		name        string
		write       func()
		want        *FlowEntry
		invalidates uint64 // global invalidations the write counts
	}{
		{"strict delete on the flow's MAC", func() { ft.Delete(ruleA.Match, ruleA.Priority, true) }, nil, 0},
		{"re-add on the flow's MAC", func() { ft.Add(ruleA) }, ruleA, 0},
		{"port-only rule", func() {
			ft.Add(&FlowEntry{Match: policy.MatchAll.Port(7), Priority: 1, Actions: []openflow.Action{openflow.Output(2)}})
		}, ruleA, 1},
		{"Clear", ft.Clear, nil, 1},
	} {
		before = warm()
		w.write()
		if e, _ := ft.Lookup(pktA, 1); e != w.want {
			t.Fatalf("%s: lookup = %v, want %v", w.name, e, w.want)
		}
		after := ft.CacheStats()
		if after.Misses != before.Misses+1 || after.Hits != before.Hits {
			t.Fatalf("%s: the flow's next lookup was not a miss: %+v -> %+v", w.name, before, after)
		}
		if got := after.Invalidations - before.Invalidations; got != w.invalidates {
			t.Fatalf("%s: counted %d global invalidations, want %d", w.name, got, w.invalidates)
		}
	}
}

// TestLookupScalesAcrossTableSizes is a coarse regression guard for the
// match index: a dst-MAC keyed lookup over a 64x bigger table must not cost
// anywhere near 64x the candidate scans. It checks work done, not
// wall-clock, via the linear-scan oracle's own counters staying exact.
func TestLookupScalesAcrossTableSizes(t *testing.T) {
	for _, n := range []int{64, 4096} {
		ft := NewFlowTable()
		entries := make([]*FlowEntry, n)
		for i := range entries {
			entries[i] = &FlowEntry{
				Match:    policy.MatchAll.DstMAC(netutil.VMAC(uint32(i))),
				Priority: 10,
				Actions:  []openflow.Action{openflow.Output(2)},
			}
		}
		ft.AddBatch(entries)
		for i := 0; i < n; i += 7 {
			pkt := policy.Packet{DstMAC: netutil.VMAC(uint32(i)), EthType: 0x0800}
			e, ok := ft.Lookup(pkt, 1)
			if !ok {
				t.Fatalf("n=%d: no match for vmac %d", n, i)
			}
			if mac, _ := e.Match.GetDstMAC(); mac != netutil.VMAC(uint32(i)) {
				t.Fatalf("n=%d: wrong entry %v for vmac %d", n, e, i)
			}
		}
		if testing.Verbose() {
			fmt.Printf("n=%d cache stats: %+v\n", n, ft.CacheStats())
		}
	}
}
