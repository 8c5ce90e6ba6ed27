package main

// Data-plane workloads: one switch holding the compiled ixp200 base table
// (core.InstallBase), driven with InjectBatch from one goroutine. They differ
// only in how the traffic relates to the switch's cache tiers.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sort"
	"time"

	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/openflow"
	"sdx/internal/packet"
	"sdx/internal/policy"
	"sdx/internal/routeserver"
	"sdx/internal/workload"
)

// fwdBatch is the traffic of one ingress port: sz.flowsPerPort flows, each
// rendered at both frame sizes, with the ports the reference classifier says
// one injection of the batch must leave on.
type fwdBatch struct {
	inPort uint16
	keys   []policy.Packet
	small  [][]byte // 64-byte frames
	large  [][]byte // 1500-byte frames
	want   map[uint16]uint64
	// injected counts InjectBatch calls, so expected per-port totals follow
	// without touching a counter per frame on the timed path.
	injected uint64
}

// fabricUnderTest is the forward workloads' fixture.
type fabricUnderTest struct {
	ex      *workload.Exchange
	ctrl    *core.Controller
	res     *core.CompileResult
	sw      *dataplane.Switch
	got     []uint64 // frames emitted, by port number
	batches []*fwdBatch

	inMask map[policy.Packet]bool // srcPortInMask's answers, by aggregate
	misses uint64                 // slow-path count at the last answer
}

// frame layout offsets the cold workload patches.
const (
	offSrcPort = 14 + 20
	offUDPSum  = 14 + 20 + 6
	offTCPSum  = 14 + 20 + 16
	offIPProto = 14 + 9
)

func newFabric(sz sizes, seed int64, accept func(*fabricUnderTest, policy.Packet) bool) (*fabricUnderTest, error) {
	f := &fabricUnderTest{}
	rng := rand.New(rand.NewSource(topologySeed))
	f.ex = workload.GenerateExchange(rng, sz.participants, sz.prefixes)
	f.ctrl = core.NewController(routeserver.New(nil), core.DefaultOptions())
	if err := f.ex.Populate(f.ctrl); err != nil {
		return nil, err
	}
	if _, err := workload.InstallPolicies(rng, f.ex, f.ctrl, workload.DefaultPolicyMix()); err != nil {
		return nil, err
	}
	var err error
	if f.res, err = f.ctrl.Compile(); err != nil {
		return nil, err
	}
	f.sw = dataplane.NewSwitch(1)
	maxPort := 0
	for _, m := range f.ex.Members {
		for _, p := range m.Ports {
			maxPort = max(maxPort, int(p.Number))
		}
	}
	f.got = make([]uint64, maxPort+1)
	for _, m := range f.ex.Members {
		for _, p := range m.Ports {
			port := p.Number
			f.sw.AttachPort(port, func([]byte) { f.got[port]++ })
		}
	}
	if err := core.InstallBase(f.sw, f.res); err != nil {
		return nil, err
	}
	f.buildFlows(sz, seed, accept)
	// Caches warm: every flow seen once.
	for _, b := range f.batches {
		if err := f.sw.InjectBatch(b.inPort, b.small); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// buildFlows draws the seeded flow set: from each of the sz.ingressPorts
// largest members, sz.flowsPerPort flows toward live equivalence classes —
// destination MAC is the class's controller-assigned VMAC, as a border router
// that ARPed for the advertised virtual next hop would send.
func (f *fabricUnderTest) buildFlows(sz sizes, seed int64, accept func(*fabricUnderTest, policy.Packet) bool) {
	rng := rand.New(rand.NewSource(seed))
	f.batches = nil
	for mi := 0; mi < sz.ingressPorts; mi++ {
		m := f.ex.Members[mi]
		port := m.Ports[0]
		b := &fwdBatch{inPort: port.Number}
		// Past the attempt cap the filter is dropped rather than spinning;
		// the workload's validity check then says the traffic is not what
		// it was meant to be.
		for tries := 0; len(b.small) < sz.flowsPerPort; tries++ {
			fec := f.res.FECs[rng.Intn(len(f.res.FECs))]
			if hop, ok := fec.DefaultNextHop(m.ID); !ok || hop == m.ID {
				continue
			}
			src := m.Announced[rng.Intn(len(m.Announced))].Addr().Next()
			dstPfx := fec.Prefixes[rng.Intn(len(fec.Prefixes))]
			host := dstPfx.Addr().As4()
			host[3] = byte(1 + rng.Intn(250))
			dst := netip.AddrFrom4(host)
			sport := uint16(32768 + rng.Intn(28000))
			dport := appPorts[rng.Intn(len(appPorts))]
			proto := packet.ProtoUDP
			if rng.Intn(10) < 7 {
				proto = packet.ProtoTCP
			}
			key := policy.Packet{
				Port: port.Number, SrcMAC: port.MAC, DstMAC: fec.VMAC, EthType: packet.EtherTypeIPv4,
				SrcIP: src, DstIP: dst, Proto: uint8(proto), SrcPort: sport, DstPort: dport,
			}
			if accept != nil && tries < 400*sz.flowsPerPort && !accept(f, key) {
				continue
			}
			b.keys = append(b.keys, key)
			for _, size := range []int{64, 1500} {
				var pkt *packet.Packet
				if proto == packet.ProtoTCP {
					pkt = packet.NewTCP(port.MAC, fec.VMAC, src, dst, sport, dport, 0x10, make([]byte, size-54))
				} else {
					pkt = packet.NewUDP(port.MAC, fec.VMAC, src, dst, sport, dport, make([]byte, size-42))
				}
				if size == 64 {
					b.small = append(b.small, pkt.Serialize())
				} else {
					b.large = append(b.large, pkt.Serialize())
				}
			}
		}
		sortBatch(b)
		f.batches = append(f.batches, b)
	}
}

// sortBatch puts a batch's flows in a canonical order (by destination class,
// then the remaining header fields). The switch's megaflow tier probes its
// wildcard masks in the order their first packets arrived, so an arbitrary
// flow order makes per-packet cost a property of the seed's shuffle rather
// than of the traffic.
func sortBatch(b *fwdBatch) {
	idx := make([]int, len(b.keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool {
		a, c := b.keys[idx[x]], b.keys[idx[y]]
		if a.DstMAC != c.DstMAC {
			return bytes.Compare(a.DstMAC[:], c.DstMAC[:]) < 0
		}
		if a.DstPort != c.DstPort {
			return a.DstPort < c.DstPort
		}
		if a.Proto != c.Proto {
			return a.Proto < c.Proto
		}
		if a.SrcIP != c.SrcIP {
			return a.SrcIP.Less(c.SrcIP)
		}
		return a.SrcPort < c.SrcPort
	})
	keys, small, large := make([]policy.Packet, len(idx)), make([][]byte, len(idx)), make([][]byte, len(idx))
	for to, from := range idx {
		keys[to], small[to], large[to] = b.keys[from], b.small[from], b.large[from]
	}
	b.keys, b.small, b.large = keys, small, large
}

// expect fills in each batch's reference outcome. Kept off the set-up clock:
// it is the oracle's cost, not the system's.
func (f *fabricUnderTest) expect() {
	for _, b := range f.batches {
		b.want = make(map[uint16]uint64)
		for _, k := range b.keys {
			for _, p := range expectedPorts(f.res.Rules, k) {
				b.want[p]++
			}
		}
	}
}

func (f *fabricUnderTest) hashFlows() string {
	h := sha256.New()
	for _, b := range f.batches {
		for _, fr := range b.small {
			h.Write(fr)
		}
	}
	return hexSum(h)
}

// loss compares what left each port with what the reference says should
// have, over everything injected since reset. Returns frames missing or
// misdelivered and frames injected.
func (f *fabricUnderTest) loss() (lost, injected uint64) {
	want := make([]uint64, len(f.got))
	for _, b := range f.batches {
		injected += b.injected * uint64(len(b.small))
		for p, n := range b.want {
			want[p] += n * b.injected
		}
	}
	for p := range want {
		if want[p] > f.got[p] {
			lost += want[p] - f.got[p]
		} else {
			lost += f.got[p] - want[p]
		}
	}
	return lost, injected
}

func (f *fabricUnderTest) reset() {
	clear(f.got)
	for _, b := range f.batches {
		b.injected = 0
	}
}

// timedFabric builds the fixture the workload measures and records how long
// that took; accept filters the flow set (nil takes every flow).
func timedFabric(cfg runConfig, res *result, accept func(*fabricUnderTest, policy.Packet) bool) (*fabricUnderTest, error) {
	t0 := time.Now()
	f, err := newFabric(cfg.sz, cfg.seed, accept)
	if err != nil {
		return nil, err
	}
	res.setups = append(res.setups, time.Since(t0).Seconds())
	f.expect()
	f.reset()
	res.inputs = f.hashFlows()
	return f, nil
}

// finish records peak RSS and repeats the set-up so setup_s is a median.
func (f *fabricUnderTest) finish(cfg runConfig, res *result, accept func(*fabricUnderTest, policy.Packet) bool) error {
	res.rssMB = peakRSSMB()
	for i := 1; i < cfg.sz.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := newFabric(cfg.sz, cfg.seed, accept); err != nil {
			return err
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}
	return nil
}

// phase is one timed stretch of InjectBatch calls.
type phase struct {
	frames    uint64
	elapsed   time.Duration
	latencies []float64 // ms per InjectBatch call
	rates     []rate    // frames and on-clock time per call, before-hook included
	cache     dataplane.CacheStats
	mallocs   uint64
}

// drive injects batches round-robin for d. before, when set, runs ahead of
// every batch on the clock but outside the per-batch latency (the cold
// workload's client rotation, the churn workload's table writes).
func (f *fabricUnderTest) drive(tr *tracer, d time.Duration, large bool, before func(i int, b *fwdBatch)) (*phase, error) {
	ph := &phase{latencies: make([]float64, 0, 1<<18), rates: make([]rate, 0, 1<<18)}
	c0 := f.sw.Table.CacheStats()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	tr.clock(true)
	start := time.Now()
	prev := start
	for i := 0; ; i++ {
		b := f.batches[i%len(f.batches)]
		if before != nil {
			before(i, b)
		}
		frames := b.small
		if large {
			frames = b.large
		}
		id := tr.begin("dataplane.inject", -1, -1)
		t0 := time.Now()
		err := f.sw.InjectBatch(b.inPort, frames)
		t1 := time.Now()
		tr.end(id)
		if err != nil {
			return nil, err
		}
		b.injected++
		ph.frames += uint64(len(frames))
		ph.latencies = append(ph.latencies, float64(t1.Sub(t0))/1e6)
		ph.rates = append(ph.rates, rate{float64(len(frames)), t1.Sub(prev)})
		prev = t1
		if t1.Sub(start) >= d {
			ph.elapsed = t1.Sub(start)
			break
		}
	}
	tr.clock(false)
	runtime.ReadMemStats(&m1)
	c1 := f.sw.Table.CacheStats()
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.cache = dataplane.CacheStats{
		Hits:          c1.Hits - c0.Hits,
		Misses:        c1.Misses - c0.Misses,
		MegaflowHits:  c1.MegaflowHits - c0.MegaflowHits,
		Invalidations: c1.Invalidations - c0.Invalidations,
		MegaflowMasks: c1.MegaflowMasks,
	}
	return ph, nil
}

// report folds one 64-byte phase into the result: the shared metrics, the
// cache-tier shares, and the zero-loss oracle.
func (f *fabricUnderTest) report(res *result, ph *phase, tailQ float64) (cached, slow float64) {
	res.latencies, res.rates = ph.latencies, ph.rates
	res.work, res.clock = float64(ph.frames), ph.elapsed
	n := len(ph.latencies)
	p50, tail, pps := res.summary(tailQ)
	p99, _ := slicedTail(ph.latencies, 0.99)
	res.name("pkts_per_s", pps, "1/s", int(ph.frames))
	res.name("batch_p50_us", p50*1e3, "us", n)
	res.name(fmt.Sprintf("batch_p%.0f_us", tailQ*100), tail*1e3, "us", n)
	res.name("batch_p99_us", p99*1e3, "us", n)

	lookups := float64(ph.cache.Hits + ph.cache.MegaflowHits + ph.cache.Misses)
	if lookups > 0 {
		res.count("microflow_hit_share", float64(ph.cache.Hits)/lookups)
		res.count("megaflow_hit_share", float64(ph.cache.MegaflowHits)/lookups)
		res.count("slow_path_share", float64(ph.cache.Misses)/lookups)
		cached = float64(ph.cache.Hits+ph.cache.MegaflowHits) / lookups
		slow = float64(ph.cache.Misses) / lookups
	}
	res.count("cache_invalidations", float64(ph.cache.Invalidations))
	res.count("allocs_per_frame", float64(ph.mallocs)/float64(ph.frames))
	res.count("flow_rules", float64(len(f.res.Rules)))
	res.count("prefix_groups", float64(f.res.Stats.PrefixGroups))

	lost, injected := f.loss()
	res.attempted += int(injected)
	res.failed += int(lost)
	if lost > 0 && res.firstFailure == "" {
		res.firstFailure = fmt.Sprintf("%d of %d frames did not leave on the port the compiled classifier names", lost, injected)
	}
	res.name("loss_share", float64(lost)/float64(max(injected, 1)), "ratio", int(injected))
	return cached, slow
}

// replayPacketPath times the two layers InjectBatch hides — packet.decode
// (Scratch.Decode) and dataplane.lookup (FlowTable.LookupBatch) — on the
// workload's own frames.
func (f *fabricUnderTest) replayPacketPath(tr *tracer, sz sizes) {
	if tr == nil {
		return
	}
	n := sz.flowsPerPort
	decs := make([]packet.Scratch, n)
	keys := make([]policy.Packet, n)
	sizes := make([]int, n)
	out := make([]*dataplane.FlowEntry, n)
	for r := 0; r < sz.replayBatches; r++ {
		b := f.batches[r%len(f.batches)]
		tr.timed("packet.decode", n, func() {
			for i, fr := range b.small {
				if _, err := decs[i].Decode(fr); err != nil {
					sizes[i] = -1
				}
			}
		})
		for i, fr := range b.small {
			keys[i] = b.keys[i]
			keys[i].SrcPort = binary.BigEndian.Uint16(fr[offSrcPort:])
			sizes[i] = len(fr)
		}
		tr.timed("dataplane.lookup", n, func() { f.sw.Table.LookupBatch(keys, sizes, out) })
	}
}

func runForwardHot(cfg runConfig) (*result, error) {
	res := &result{}
	f, err := timedFabric(cfg, res, nil)
	if err != nil {
		return nil, err
	}
	small, err := f.drive(cfg.tr, cfg.window()*2/3, false, nil)
	if err != nil {
		return nil, err
	}
	// 1500-byte frames: same flows, same per-packet work, more bytes.
	large, err := f.drive(cfg.tr, cfg.window()/3, true, nil)
	if err != nil {
		return nil, err
	}
	cached, _ := f.report(res, small, cfg.tailQ) // the loss oracle covers both phases
	res.clock += large.elapsed                   // traced spans cover both phases too
	res.require("cached_share", cached, ">= 0.99", cached >= 0.99)
	pps1500, _ := slicedRate(large.rates)
	res.name("gbit_per_s", pps1500*1500*8/1e9, "Gbit/s", int(large.frames))
	res.name("pkts_per_s_1500", pps1500, "1/s", int(large.frames))
	f.replayPacketPath(cfg.tr, cfg.sz)
	return res, f.finish(cfg, res, nil)
}

// patchSrcPort rewrites a frame's L4 source port in place, keeping the L4
// checksum valid (RFC 1624 incremental update).
func patchSrcPort(frame []byte, port uint16) {
	old := binary.BigEndian.Uint16(frame[offSrcPort:])
	binary.BigEndian.PutUint16(frame[offSrcPort:], port)
	off := offUDPSum
	if frame[offIPProto] == packet.ProtoTCP {
		off = offTCPSum
	}
	sum := uint32(^binary.BigEndian.Uint16(frame[off:])) + uint32(^old) + uint32(port)
	sum = sum&0xffff + sum>>16
	sum = sum&0xffff + sum>>16
	binary.BigEndian.PutUint16(frame[off:], ^uint16(sum))
}

func runForwardCold(cfg runConfig) (*result, error) {
	res := &result{}
	f, err := timedFabric(cfg, res, srcPortInMask)
	if err != nil {
		return nil, err
	}
	// A client is one of the base flows with its own source port, so
	// sz.coldClients distinct header tuples cycle through the switch. Source
	// ports avoid every value a rule matches on: a client's classification —
	// and so the oracle's expectation — is its base flow's, yet wherever a
	// scanned rule constrains the source port the megaflow key keeps it, and
	// the masked-tuple working set is the whole client population.
	matched := make(map[uint16]bool)
	for _, r := range f.res.Rules {
		if p, ok := r.Match.GetSrcPort(); ok {
			matched[p] = true
		}
	}
	var pool []uint16
	for p := 1024; p < 65536; p++ {
		if !matched[uint16(p)] {
			pool = append(pool, uint16(p))
		}
	}
	// Flow j in round r is client (j, r mod perFlow) and uses the source port
	// at pool[j*stride + r mod perFlow]: flows that share an aggregate never
	// share a port within a round, so every frame is its own masked tuple.
	flows := cfg.sz.ingressPorts * cfg.sz.flowsPerPort
	perFlow := max(cfg.sz.coldClients/flows, 1)
	const stride = 7919
	round := -1
	ph, err := f.drive(cfg.tr, cfg.window(), false, func(i int, b *fwdBatch) {
		bi := i % len(f.batches)
		if bi == 0 {
			round++
		}
		for k, fr := range b.small {
			j := bi*cfg.sz.flowsPerPort + k
			patchSrcPort(fr, pool[(j*stride+round%perFlow)%len(pool)])
		}
	})
	if err != nil {
		return nil, err
	}
	_, slow := f.report(res, ph, cfg.tailQ)
	res.name("clients", float64(flows*min(perFlow, round+1)), "count", 1)
	res.require("slow_path_share", slow, ">= 0.50", slow >= 0.50)
	f.replayPacketPath(cfg.tr, cfg.sz)
	return res, f.finish(cfg, res, srcPortInMask)
}

// srcPortInMask reports whether the switch keeps the source port in the
// megaflow key for this flow's aggregate — observed from outside: two
// lookups that differ only in source port both reach the slow path. Only
// such flows can defeat the megaflow tier, so forward_cold draws its base
// flows from them. Asked once per (ingress port, VMAC): on the compiled
// ixp200 table the answer depends on whose inbound policy the destination
// class runs into, not on the remaining header fields; were that to change,
// forward_cold's slow-path validity check says so.
func srcPortInMask(f *fabricUnderTest, key policy.Packet) bool {
	agg := policy.Packet{Port: key.Port, DstMAC: key.DstMAC}
	if v, ok := f.inMask[agg]; ok {
		return v
	}
	if f.inMask == nil {
		f.inMask = make(map[policy.Packet]bool)
		f.misses = f.sw.Table.CacheStats().Misses
	}
	for _, port := range []uint16{1, 2} { // below every port a flow or client uses
		key.SrcPort = port
		f.sw.Table.Lookup(key, 0)
	}
	now := f.sw.Table.CacheStats().Misses
	f.inMask[agg] = now-f.misses == 2
	f.misses = now
	return f.inMask[agg]
}

func runForwardChurn(cfg runConfig) (*result, error) {
	res := &result{}
	f, err := timedFabric(cfg, res, nil)
	if err != nil {
		return nil, err
	}
	// Recorded fast-path rule batches: withdraw the best route of a
	// multi-homed prefix, let the controller's quick stage react, lower the
	// rules as PushFastAll would. They match only the fresh VMACs they mint,
	// which no flow carries, so the base table's expectation stays the
	// oracle; what they cost the traffic is the cache wipe every install
	// triggers.
	rs := f.ctrl.RouteServer()
	var recorded [][]*openflow.FlowMod
	for _, p := range f.ex.Prefixes {
		if len(recorded) == cfg.sz.churnBatches {
			break
		}
		anns := f.ex.AnnouncersOf[p]
		if len(anns) < 2 {
			continue
		}
		if _, err := rs.Withdraw(f.ex.Members[anns[0]].ID, p); err != nil {
			return nil, err
		}
		fast, err := f.ctrl.FastReact([]netip.Prefix{p})
		if err != nil {
			return nil, err
		}
		fms, err := core.FlowModsForRules(fast.Rules, 0xfffe)
		if err != nil {
			return nil, err
		}
		if len(fms) > 0 {
			recorded = append(recorded, fms)
		}
	}
	if len(recorded) == 0 {
		return nil, fmt.Errorf("no multi-homed prefix produced fast-path rules")
	}
	installs := 0
	sinceInstall := 0
	var installErr error
	ph, err := f.drive(cfg.tr, cfg.window(), false, func(_ int, b *fwdBatch) {
		if sinceInstall += len(b.small); sinceInstall < cfg.sz.churnFrames {
			return
		}
		sinceInstall = 0
		id := cfg.tr.begin("dataplane.install", -1, -1)
		if installs++; installs%cfg.sz.churnBaseEvery == 0 {
			installErr = core.InstallBase(f.sw, f.res)
		} else {
			installErr = f.sw.InstallFlowMods(recorded[installs%len(recorded)])
		}
		cfg.tr.end(id)
	})
	if err != nil {
		return nil, err
	}
	if installErr != nil {
		return nil, installErr
	}
	f.report(res, ph, cfg.tailQ)
	res.name("table_installs", float64(installs), "count", 1)
	res.require("table_installs", float64(installs), ">= 1", installs >= 1)
	f.replayPacketPath(cfg.tr, cfg.sz)
	return res, f.finish(cfg, res, nil)
}
