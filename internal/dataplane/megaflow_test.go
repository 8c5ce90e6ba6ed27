package dataplane

import (
	"math/rand"
	"net/netip"
	"sync"
	"testing"

	"sdx/internal/netutil"
	"sdx/internal/openflow"
	"sdx/internal/policy"
)

// megaflowRandMatch draws rules from wider pools than randMatch so a 10k-rule
// table actually holds thousands of distinct rules (the small cache_test pools
// would collapse it to a few hundred via replacement).
func megaflowRandMatch(rng *rand.Rand) policy.Match {
	m := policy.MatchAll
	if rng.Intn(2) == 0 {
		m = m.Port(uint16(1 + rng.Intn(8)))
	}
	if rng.Intn(2) == 0 {
		m = m.DstMAC(netutil.VMAC(uint32(rng.Intn(64))))
	}
	if rng.Intn(4) == 0 {
		m = m.SrcMAC(netutil.VMAC(uint32(100 + rng.Intn(8))))
	}
	if rng.Intn(2) == 0 {
		m = m.DstPort(uint16(80 + rng.Intn(64)))
	}
	if rng.Intn(4) == 0 {
		m = m.SrcPort(uint16(1000 + rng.Intn(16)))
	}
	if rng.Intn(4) == 0 {
		bits := 8 * (1 + rng.Intn(3))
		m = m.DstIP(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), 0, 0}), bits))
	}
	if rng.Intn(6) == 0 {
		bits := 8 * (1 + rng.Intn(3))
		m = m.SrcIP(netip.PrefixFrom(netip.AddrFrom4([4]byte{172, byte(16 + rng.Intn(4)), 0, 0}), bits))
	}
	return m
}

// megaflowRandPacket draws packets from the same value pools, so lookups hit
// rules often and the same masked aggregate recurs with fresh exact tuples —
// the traffic shape the megaflow tier caches.
func megaflowRandPacket(rng *rand.Rand) policy.Packet {
	return policy.Packet{
		Port:    uint16(1 + rng.Intn(8)),
		SrcMAC:  netutil.VMAC(uint32(100 + rng.Intn(8))),
		DstMAC:  netutil.VMAC(uint32(rng.Intn(64))),
		EthType: 0x0800,
		SrcIP:   netip.AddrFrom4([4]byte{172, byte(16 + rng.Intn(4)), byte(rng.Intn(4)), byte(1 + rng.Intn(64))}),
		DstIP:   netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(1 + rng.Intn(64))}),
		Proto:   17,
		SrcPort: uint16(1000 + rng.Intn(16)),
		DstPort: uint16(80 + rng.Intn(64)),
	}
}

// TestMegaflowEquivalenceProperty is the wildcard-cache correctness property
// at table scale: a 10k-rule random table, 100k random lookups — a mix of
// single Lookup and LookupBatch — with add/delete churn mid-stream, and every
// result compared against the linear priority scan. The masked-aggregate
// invariant under test: any two packets with equal projections under a
// cached mask take the identical scan, so answering one from the other's
// cached result can never disagree with the full table walk.
func TestMegaflowEquivalenceProperty(t *testing.T) {
	const (
		rules   = 10_000
		lookups = 100_000
		batch   = 64
	)
	rng := rand.New(rand.NewSource(7))
	ft := NewFlowTable()
	build := make([]*FlowEntry, rules)
	for i := range build {
		build[i] = &FlowEntry{
			Match:    megaflowRandMatch(rng),
			Priority: uint16(1 + rng.Intn(64)),
			Actions:  []openflow.Action{openflow.Output(uint16(rng.Intn(8)))},
		}
	}
	ft.AddBatch(build)

	// The oracle scans a table-ordered snapshot, retaken after every write:
	// sorting the 10k rules per lookup would dominate the run.
	snap := ft.ordered()
	oracle := func(pkt policy.Packet) *FlowEntry {
		e, _ := lookupLinear(snap, pkt)
		return e
	}
	// Recent packets get replayed with a mutated low IP octet: rules only
	// constrain prefixes up to /24, so the mutation leaves every cached
	// mask's projection intact — a fresh exact tuple inside a live masked
	// aggregate, which is precisely what the megaflow tier must answer.
	var recent []policy.Packet
	draw := func() policy.Packet {
		if len(recent) > 0 && rng.Intn(2) == 0 {
			pkt := recent[rng.Intn(len(recent))]
			src := pkt.SrcIP.As4()
			src[3] = byte(1 + rng.Intn(250))
			pkt.SrcIP = netip.AddrFrom4(src)
			return pkt
		}
		pkt := megaflowRandPacket(rng)
		if len(recent) < 256 {
			recent = append(recent, pkt)
		} else {
			recent[rng.Intn(len(recent))] = pkt
		}
		return pkt
	}
	keys := make([]policy.Packet, batch)
	sizes := make([]int, batch)
	out := make([]*FlowEntry, batch)
	done := 0
	for done < lookups {
		switch rng.Intn(10) {
		case 0: // churn: replace a batch of random rules
			churn := make([]*FlowEntry, 1+rng.Intn(16))
			for i := range churn {
				churn[i] = &FlowEntry{
					Match:    megaflowRandMatch(rng),
					Priority: uint16(1 + rng.Intn(64)),
					Actions:  []openflow.Action{openflow.Output(uint16(rng.Intn(8)))},
				}
			}
			ft.AddBatch(churn)
			snap = ft.ordered()
		case 1: // churn: delete (strict or wildcard)
			ft.Delete(megaflowRandMatch(rng), uint16(1+rng.Intn(64)), rng.Intn(2) == 0)
			snap = ft.ordered()
		}
		if rng.Intn(2) == 0 {
			// Single-lookup path; repeat some tuples to exercise cached hits.
			pkt := draw()
			n := 1 + rng.Intn(3)
			for i := 0; i < n; i++ {
				got, _ := ft.Lookup(pkt, 1)
				if want := oracle(pkt); got != want {
					t.Fatalf("after %d lookups: Lookup(%+v) = %v, linear scan = %v",
						done, pkt, got, want)
				}
				done++
			}
			continue
		}
		for i := range keys {
			keys[i] = draw()
			sizes[i] = 64
		}
		ft.LookupBatch(keys, sizes, out)
		for i := range keys {
			if want := oracle(keys[i]); out[i] != want {
				t.Fatalf("after %d lookups: LookupBatch(%+v) = %v, linear scan = %v",
					done, keys[i], out[i], want)
			}
		}
		done += batch
	}
	st := ft.CacheStats()
	if st.MegaflowHits == 0 {
		t.Fatal("property run never hit the megaflow tier")
	}
	if st.Hits == 0 {
		t.Fatal("property run never hit the microflow tier")
	}
	t.Logf("lookups=%d microflow=%d megaflow=%d slow=%d masks=%d",
		done, st.Hits, st.MegaflowHits, st.Misses, st.MegaflowMasks)
}

// TestFlowTableCountersExactUnderConcurrentInjectBatch is the batched twin of
// TestFlowTableCountersExactUnderConcurrentInject: concurrent InjectBatch
// callers with table churn in the background, and afterwards the per-entry
// packet counters must account for exactly the frames injected — batching
// must not double-count, drop, or misattribute across a mutation.
func TestFlowTableCountersExactUnderConcurrentInjectBatch(t *testing.T) {
	sw, _ := newTestSwitch()
	target := &FlowEntry{
		Match:    policy.MatchAll.Port(1).DstPort(80),
		Priority: 10,
		Actions:  []openflow.Action{openflow.Output(2)},
	}
	other := &FlowEntry{
		Match:    policy.MatchAll.Port(1).DstPort(443),
		Priority: 10,
		Actions:  []openflow.Action{openflow.Output(3)},
	}
	sw.Table.Add(target)
	sw.Table.Add(other)

	const (
		workers       = 8
		batchesPerW   = 50
		framesPerOnes = 16 // dstPort 80 frames per batch
	)
	frame80, frame443 := udpFrame(80), udpFrame(443)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // churn an unrelated rule to invalidate both cache tiers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sw.Table.Add(&FlowEntry{
				Match:    policy.MatchAll.Port(3),
				Priority: 5,
				Actions:  []openflow.Action{openflow.Output(2)},
			})
			sw.Table.Delete(policy.MatchAll.Port(3), 5, true)
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([][]byte, 2*framesPerOnes)
			for i := range batch {
				if i%2 == 0 {
					batch[i] = frame80
				} else {
					batch[i] = frame443
				}
			}
			for n := 0; n < batchesPerW; n++ {
				if err := sw.InjectBatch(1, batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	close(stop)
	wg.Wait()

	wantEach := uint64(workers * batchesPerW * framesPerOnes)
	if target.Packets != wantEach {
		t.Fatalf("target counted %d packets, want %d", target.Packets, wantEach)
	}
	if other.Packets != wantEach {
		t.Fatalf("other counted %d packets, want %d", other.Packets, wantEach)
	}
	wantBytes := wantEach * uint64(len(frame80))
	if target.Bytes != wantBytes {
		t.Fatalf("target counted %d bytes, want %d", target.Bytes, wantBytes)
	}
}

// TestCachedForwardingAllocsZero pins the ISSUE's zero-allocation contract:
// once a flow is cached, neither Inject nor InjectBatch may touch the heap.
// Distinct 5-tuples per frame keep the batch run on the megaflow tier
// (microflow alone would make the pin vacuous for aggregate traffic).
func TestCachedForwardingAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race: the instrumentation allocates")
	}
	sw := NewSwitch(1)
	for _, p := range []uint16{1, 2} {
		sw.AttachPort(p, func([]byte) {})
	}
	sw.Table.Add(&FlowEntry{
		Match:    policy.MatchAll.Port(1).DstPort(80),
		Priority: 10,
		Actions:  []openflow.Action{openflow.Output(2)},
	})

	frame := udpFrame(80)
	if err := sw.Inject(1, frame); err != nil { // warm both cache tiers
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(500, func() {
		if err := sw.Inject(1, frame); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("warm Inject allocates %.2f/op, want 0", got)
	}

	const batch = 64
	frames := make([][]byte, batch)
	for i := range frames {
		f := make([]byte, len(frame))
		copy(f, frame)
		// Vary the IPv4 source so every frame is a distinct exact tuple:
		// the batch then exercises the megaflow path, not microflow replay.
		f[29] = byte(i + 1)
		frames[i] = f
	}
	if err := sw.InjectBatch(1, frames); err != nil {
		t.Fatal(err)
	}
	n := uint16(0)
	if got := testing.AllocsPerRun(100, func() {
		// Never-repeating tuples: every frame misses microflow and must be
		// answered by the megaflow tier without installing anything new.
		n++
		for _, f := range frames {
			f[27], f[28] = byte(n>>8), byte(n)
		}
		if err := sw.InjectBatch(1, frames); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("warm InjectBatch allocates %.2f/batch, want 0", got)
	}
	st := sw.Table.CacheStats()
	if st.MegaflowHits == 0 {
		t.Fatal("aggregate batches never hit the megaflow tier")
	}

	// A header rewrite copies the frame once and patches it in place: one
	// allocation, never a decode-and-reserialize.
	sw.Table.Add(&FlowEntry{
		Match:    policy.MatchAll.Port(1).DstPort(443),
		Priority: 10,
		Actions:  []openflow.Action{setDLDst(macRouter), openflow.Output(2)},
	})
	rewritten := udpFrame(443)
	if err := sw.Inject(1, rewritten); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(500, func() {
		if err := sw.Inject(1, rewritten); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("warm Inject through SetDLDst allocates %.2f/op, want <= 1", got)
	}
}
