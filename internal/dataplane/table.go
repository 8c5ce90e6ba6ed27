// Package dataplane implements the SDX fabric: a software OpenFlow switch
// with a priority flow table, header matching and rewriting, per-rule and
// per-port counters, and a controller channel speaking the openflow
// package's wire protocol. It stands in for the Open vSwitch instance of
// the paper's deployment while preserving rule-table semantics.
package dataplane

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sdx/internal/netutil"
	"sdx/internal/openflow"
	"sdx/internal/policy"
	"sdx/internal/telemetry"
)

// FlowEntry is one installed rule: an OpenFlow match, a priority, the
// action list, and hit counters.
//
// Packets and Bytes are updated with atomic operations outside the table
// lock (they are bumped by lookups that may hold no lock at all); read them
// through FlowTable.Entries, which takes a consistent atomic snapshot. They
// sit first in the struct so they are 64-bit aligned even on 32-bit
// platforms.
type FlowEntry struct {
	Packets uint64
	Bytes   uint64

	Match    policy.Match
	Priority uint16
	Actions  []openflow.Action
	Cookie   uint64

	// seq is the entry's installation order in its table (the tie-break
	// among equal priorities), assigned under the table's write lock.
	seq uint64
}

func (e *FlowEntry) String() string {
	acts := make([]string, len(e.Actions))
	for i, a := range e.Actions {
		switch a.Type {
		case openflow.ActionTypeOutput:
			acts[i] = fmt.Sprintf("output:%d", a.Port)
		case openflow.ActionTypeSetDLDst:
			acts[i] = "set_dl_dst:" + a.MAC.String()
		case openflow.ActionTypeSetDLSrc:
			acts[i] = "set_dl_src:" + a.MAC.String()
		case openflow.ActionTypeSetNWDst:
			acts[i] = "set_nw_dst:" + a.IP.String()
		case openflow.ActionTypeSetNWSrc:
			acts[i] = "set_nw_src:" + a.IP.String()
		case openflow.ActionTypeSetTPDst:
			acts[i] = fmt.Sprintf("set_tp_dst:%d", a.TP)
		case openflow.ActionTypeSetTPSrc:
			acts[i] = fmt.Sprintf("set_tp_src:%d", a.TP)
		default:
			acts[i] = fmt.Sprintf("action(%d)", a.Type)
		}
	}
	actStr := "drop"
	if len(acts) > 0 {
		actStr = strings.Join(acts, ",")
	}
	return fmt.Sprintf("priority=%d %s -> %s", e.Priority, e.Match, actStr)
}

// microflowSlots is the size of the direct-mapped exact-match cache. Power
// of two; 8192 slots × one pointer is 64 KiB per table, far below the flow
// diversity of an IXP fabric port but enough that steady flows stay cached.
const microflowSlots = 1 << 13

// microflowSlot is one cached lookup result: the full header tuple it was
// computed for, the stamp it is valid under (FlowTable.stamp of the tuple's
// dst MAC), and the winning entry (nil caches a table miss). Slots are
// immutable once published.
type microflowSlot struct {
	pkt   policy.Packet
	stamp uint64
	entry *FlowEntry
}

// megaflowSlots is the per-mask size of the wildcard (megaflow) cache.
// Power of two; each mask group is a direct-mapped array of slot pointers.
const megaflowSlots = 1 << 14

// maxMegaflowMasks bounds the number of distinct wildcard masks the cache
// tracks. Real SDX tables produce a handful of masks (each mask is the
// union of the fields a slow-path classification examined); the cap keeps
// the per-miss probe cost bounded if a pathological rule set fragments the
// mask space.
const maxMegaflowMasks = 16

// lookupMask records which packet fields a classification examined: the
// union of every scanned rule's constrained-field set, seeded with the
// fields that select the scan's buckets (in-port and dst-MAC). For the IP
// fields it also records the longest prefix length seen, so the cache key
// keeps exactly the bits any scanned rule could test. Comparable, so masks
// can be deduplicated into groups.
type lookupMask struct {
	set              uint16 // 1<<policy.Field bits
	srcBits, dstBits uint8  // max prefix length among scanned Src/DstIP rules
}

// add unions one scanned rule's constraints into the mask.
func (m *lookupMask) add(match policy.Match) {
	m.set |= match.FieldSet()
	if p, ok := match.GetSrcIP(); ok && uint8(p.Bits()) > m.srcBits {
		m.srcBits = uint8(p.Bits())
	}
	if p, ok := match.GetDstIP(); ok && uint8(p.Bits()) > m.dstBits {
		m.dstBits = uint8(p.Bits())
	}
}

// project reduces pkt to the fields in the mask: any two packets with equal
// projections take the identical scan through the table (same buckets —
// port and dst-MAC are always in the mask — and identical Covers results
// for every rule examined, since each scanned rule's constrained fields are
// a subset of the mask with sufficient prefix bits), so they classify to
// the same entry and one cached result answers the whole aggregate.
func (m lookupMask) project(pkt policy.Packet) policy.Packet {
	k := policy.Packet{Port: pkt.Port, DstMAC: pkt.DstMAC}
	if m.set&(1<<policy.FSrcMAC) != 0 {
		k.SrcMAC = pkt.SrcMAC
	}
	if m.set&(1<<policy.FEthType) != 0 {
		k.EthType = pkt.EthType
	}
	if m.set&(1<<policy.FProto) != 0 {
		k.Proto = pkt.Proto
	}
	if m.set&(1<<policy.FSrcPort) != 0 {
		k.SrcPort = pkt.SrcPort
	}
	if m.set&(1<<policy.FDstPort) != 0 {
		k.DstPort = pkt.DstPort
	}
	if m.set&(1<<policy.FSrcIP) != 0 {
		k.SrcIP = maskAddr(pkt.SrcIP, m.srcBits)
	}
	if m.set&(1<<policy.FDstIP) != 0 {
		k.DstIP = maskAddr(pkt.DstIP, m.dstBits)
	}
	return k
}

// maskAddr keeps the top bits of a. An invalid address stays invalid (a
// prefix match distinguishes valid from invalid, so the key must too), and
// an address shorter than bits (an IPv4 packet against an IPv6 rule's
// prefix length) is kept unmasked — a more specific key, still correct.
func maskAddr(a netip.Addr, bits uint8) netip.Addr {
	if !a.IsValid() {
		return a
	}
	p, err := a.Prefix(int(bits))
	if err != nil {
		return a
	}
	return p.Addr()
}

// megaflowEntry is one cached wildcard lookup result: the masked tuple it
// answers for, the stamp it is valid under, and the winning entry (nil
// caches a table miss). Immutable once published.
type megaflowEntry struct {
	key   policy.Packet
	stamp uint64
	entry *FlowEntry
}

// maskGroup is the megaflow cache for one wildcard mask: a direct-mapped
// array keyed by the hash of the projected tuple.
type maskGroup struct {
	mask  lookupMask
	slots [megaflowSlots]atomic.Pointer[megaflowEntry]
}

// ruleKey identifies a rule for OFPFC_ADD replacement semantics: same match
// and priority replace in place.
type ruleKey struct {
	match    policy.Match
	priority uint16
}

// stripeBits sizes the per-dst-MAC generation array: 1<<stripeBits
// counters, 8 KiB per table.
const stripeBits = 10

// stripeOf maps a dst MAC to its generation stripe (Fibonacci hashing: VMACs
// differ in their low bits, and the multiply carries those into the top
// bits the shift keeps).
func stripeOf(mac netutil.MAC) uint64 {
	return mac48(mac) * 0x9e3779b97f4a7c15 >> (64 - stripeBits)
}

// CacheStats reports flow-cache effectiveness counters across both cache
// tiers. Reading it is O(1); CacheOccupancy counts live slots.
type CacheStats struct {
	Hits          uint64 // lookups answered by the exact-match microflow cache
	Misses        uint64 // lookups that fell through to the slow path
	Invalidations uint64 // writes that invalidated every cached slot

	MegaflowHits  uint64 // lookups answered by the wildcard megaflow cache
	MegaflowMasks int    // distinct wildcard masks currently tracked
}

// FlowTable is a priority-ordered flow table. Higher priority wins; among
// equal priorities the earliest-installed rule wins, matching Open vSwitch
// behaviour closely enough for the SDX, which always uses distinct
// priorities for overlapping rules.
//
// Lookup runs a three-tier pipeline:
//
//  1. A direct-mapped exact-match microflow cache keyed on the packet's
//     full header tuple, validated by the stamp of its dst MAC, which only
//     a write that can change that MAC's lookups moves (see gen). A cache
//     hit touches no lock.
//  2. On a miss, a match index over the installed rules — buckets by exact
//     destination MAC (the SDX VMAC tag stage) and by in-port, plus a
//     residual list for rules constraining neither — scanned under RLock.
//  3. The winning entry (or the miss) is published back into the cache at
//     the stamp observed under the lock.
//
// Per-entry hit counters are atomics bumped outside the lock on every tier,
// so concurrent lookups never serialize on the table.
type FlowTable struct {
	mu     sync.RWMutex
	seq    uint64 // last installation order handed out
	byRule map[ruleKey]*FlowEntry

	// Match index over byRule's entries, and the table's only order: each
	// bucket is in table order. A rule lives in exactly one bucket: its
	// dst-MAC bucket if it constrains the destination MAC, else its in-port
	// bucket if it constrains the port, else the residual list. The maps
	// hold no empty buckets.
	byDstMAC map[netutil.MAC][]*FlowEntry
	byPort   map[uint16][]*FlowEntry
	residual []*FlowEntry

	// Cache validity. Every cached slot, in either tier, answers for
	// exactly one dst MAC (lookupMask.project keeps it exact), and a rule
	// naming MAC X can only change lookups of packets to X. So a slot
	// records stamp(its dst MAC) = gen + stripes[stripeOf(MAC)] and is
	// valid only while that sum is unchanged; both counters only grow, so
	// the sum holds only if neither moved. Writes bump them under mu: a
	// write whose rules all name a dst MAC bumps those MACs' stripes, any
	// other write bumps gen and so invalidates every slot.
	gen     atomic.Uint64
	stripes [1 << stripeBits]atomic.Uint64
	cache   [microflowSlots]atomic.Pointer[microflowSlot]

	// Megaflow (wildcard) cache tier: one direct-mapped group per distinct
	// lookup mask. The group list is copy-on-write (append under megaMu,
	// lock-free reads); slots are stamped exactly like the microflow cache.
	megaGroups atomic.Pointer[[]*maskGroup]
	megaMu     sync.Mutex

	cacheHits          telemetry.Counter
	cacheMisses        telemetry.Counter
	cacheInvalidations telemetry.Counter
	megaflowHits       telemetry.Counter
}

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable {
	return &FlowTable{
		byRule:   make(map[ruleKey]*FlowEntry),
		byDstMAC: make(map[netutil.MAC][]*FlowEntry),
		byPort:   make(map[uint16][]*FlowEntry),
	}
}

// less reports whether a precedes b in table order: priority descending,
// then installation order ascending (the tie-break invariant).
func less(a, b *FlowEntry) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.seq < b.seq
}

// search returns e's position in a table-ordered list: its index if the
// list holds it, else the index it would be inserted at.
func search(list []*FlowEntry, e *FlowEntry) int {
	return sort.Search(len(list), func(i int) bool { return !less(list[i], e) })
}

// invalidateLocked invalidates every cached slot a write of rules can
// change. If every rule names a dst MAC, only the stripes of those MACs move;
// otherwise — or for rules == nil, a write that may change any lookup — the
// global generation moves, in O(1). Callers hold mu.
func (t *FlowTable) invalidateLocked(rules []*FlowEntry) {
	for _, e := range rules {
		if _, ok := e.Match.GetDstMAC(); !ok {
			rules = nil
			break
		}
	}
	if rules == nil {
		t.gen.Add(1)
		t.cacheInvalidations.Inc()
		return
	}
	for _, e := range rules {
		mac, _ := e.Match.GetDstMAC()
		t.stripes[stripeOf(mac)].Add(1)
	}
}

// stamp returns the value a cached slot for packets to mac must carry to be
// valid now. Lock-free; under mu (read or write) it is stable.
func (t *FlowTable) stamp(mac netutil.MAC) uint64 {
	return t.gen.Load() + t.stripes[stripeOf(mac)].Load()
}

// insertSorted inserts e into a table-ordered list, keeping it sorted.
func insertSorted(list []*FlowEntry, e *FlowEntry) []*FlowEntry {
	i := search(list, e)
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = e
	return list
}

// removeSorted removes e from a table-ordered list that holds it. The
// vacated slot is cleared so the backing array does not keep e reachable.
func removeSorted(list []*FlowEntry, e *FlowEntry) []*FlowEntry {
	i := search(list, e)
	copy(list[i:], list[i+1:])
	list[len(list)-1] = nil
	return list[:len(list)-1]
}

// bucketUpdateLocked stores f(bucket) back as e's index bucket, deleting a
// map bucket that f leaves empty.
func (t *FlowTable) bucketUpdateLocked(e *FlowEntry, f func([]*FlowEntry) []*FlowEntry) {
	if mac, ok := e.Match.GetDstMAC(); ok {
		updateBucket(t.byDstMAC, mac, f)
	} else if p, ok := e.Match.GetPort(); ok {
		updateBucket(t.byPort, p, f)
	} else {
		t.residual = f(t.residual)
	}
}

func updateBucket[K comparable](m map[K][]*FlowEntry, k K, f func([]*FlowEntry) []*FlowEntry) {
	if list := f(m[k]); len(list) > 0 {
		m[k] = list
	} else {
		delete(m, k)
	}
}

// Add installs a rule: an AddBatch of one.
func (t *FlowTable) Add(e *FlowEntry) {
	t.AddBatch([]*FlowEntry{e})
}

// AddBatch installs rules under one lock acquisition and one cache
// invalidation covering the batch's dst MACs, at a cost proportional to what
// changes. A rule with the match and priority of an installed one (or of an
// earlier rule in the batch) replaces it in place, keeping its installation
// order and resetting its counters, mirroring OFPFC_ADD; the last of several
// duplicates wins. A replacement swaps into its bucket slot; fresh rules are
// inserted into their buckets.
func (t *FlowTable) AddBatch(es []*FlowEntry) {
	if len(es) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	first := t.seq + 1 // installation order of this batch's first fresh rule
	var fresh []*FlowEntry
	for _, e := range es {
		k := ruleKey{e.Match, e.Priority}
		old, ok := t.byRule[k]
		if old == e {
			continue
		}
		t.byRule[k] = e
		switch {
		case !ok:
			t.seq++
			e.seq = t.seq
			fresh = append(fresh, e)
		case old.seq >= first: // fresh earlier in this batch; fresh is in seq order
			e.seq = old.seq
			fresh[old.seq-first] = e
		default:
			e.seq = old.seq
			t.bucketUpdateLocked(old, func(list []*FlowEntry) []*FlowEntry {
				list[search(list, old)] = e
				return list
			})
		}
	}
	for _, e := range fresh {
		t.bucketUpdateLocked(e, func(list []*FlowEntry) []*FlowEntry { return insertSorted(list, e) })
	}
	t.invalidateLocked(es)
}

// Delete removes rules whose match equals m (strict) at the given priority;
// with strict=false it removes every rule subsumed by m regardless of
// priority, mirroring OFPFC_DELETE. A strict delete touches one entry: it
// is found by key and binary-searched out of its bucket. A wildcard delete
// filters every bucket in place.
func (t *FlowTable) Delete(m policy.Match, priority uint16, strict bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if strict {
		k := ruleKey{m, priority}
		e, ok := t.byRule[k]
		if !ok {
			return 0
		}
		delete(t.byRule, k)
		t.bucketUpdateLocked(e, func(list []*FlowEntry) []*FlowEntry { return removeSorted(list, e) })
		t.invalidateLocked([]*FlowEntry{e})
		return 1
	}
	removed := 0
	filter := func(list []*FlowEntry) []*FlowEntry {
		kept := list[:0]
		for _, e := range list {
			if m.Subsumes(e.Match) {
				delete(t.byRule, ruleKey{e.Match, e.Priority})
				continue
			}
			kept = append(kept, e)
		}
		removed += len(list) - len(kept)
		// The vacated tail would otherwise keep the removed entries reachable.
		clear(list[len(kept):])
		return kept
	}
	for mac := range t.byDstMAC {
		updateBucket(t.byDstMAC, mac, filter)
	}
	for p := range t.byPort {
		updateBucket(t.byPort, p, filter)
	}
	t.residual = filter(t.residual)
	if removed > 0 {
		t.invalidateLocked(nil)
	}
	return removed
}

// Clear removes every rule.
func (t *FlowTable) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byRule = make(map[ruleKey]*FlowEntry)
	t.byDstMAC = make(map[netutil.MAC][]*FlowEntry)
	t.byPort = make(map[uint16][]*FlowEntry)
	t.residual = nil
	t.seq = 0
	t.invalidateLocked(nil)
}

// mac48 packs a MAC into a uint64 for hashing.
func mac48(m netutil.MAC) uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// packetHash hashes a header tuple (FNV-1a over the packed fields). Both
// cache tiers index with it; collisions only cost a cache miss, since slots
// store the exact tuple and compare before use.
func packetHash(p policy.Packet) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	s := p.SrcIP.As16()
	d := p.DstIP.As16()
	h := uint64(offset64)
	h = (h ^ (uint64(p.Port) | uint64(p.EthType)<<16 | uint64(p.Proto)<<32 |
		uint64(p.SrcPort)<<40 | uint64(p.DstPort)<<48)) * prime64
	h = (h ^ mac48(p.SrcMAC)) * prime64
	h = (h ^ mac48(p.DstMAC)) * prime64
	h = (h ^ binary.BigEndian.Uint64(s[:8])) * prime64
	h = (h ^ binary.BigEndian.Uint64(s[8:])) * prime64
	h = (h ^ binary.BigEndian.Uint64(d[:8])) * prime64
	h = (h ^ binary.BigEndian.Uint64(d[8:])) * prime64
	// FNV's xor-multiply only carries differences toward the high bits, but
	// the cache index is the LOW bits — a tuple pair differing only in a
	// high-packed field (say DstPort, bits 48..63 of the first word) would
	// land in the same slot every time. A final avalanche (the murmur3
	// finalizer) spreads every input bit across the whole word.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// microflowIndex maps the full header tuple to a microflow cache slot.
func microflowIndex(p policy.Packet) uint64 {
	return packetHash(p) & (microflowSlots - 1)
}

// Lookup returns the highest-priority entry covering pkt and bumps its
// counters by size bytes: a LookupBatch of one. Repeated lookups of the same
// header tuple are answered lock-free from the microflow cache until the
// table next changes a rule for its dst MAC; new tuples inside a cached
// traffic aggregate are answered lock-free by the megaflow tier. Only a
// genuinely new aggregate pays the classifier.
func (t *FlowTable) Lookup(pkt policy.Packet, size int) (*FlowEntry, bool) {
	keys, sizes, out := [1]policy.Packet{pkt}, [1]int{size}, [1]*FlowEntry{}
	t.LookupBatch(keys[:], sizes[:], out[:])
	return out[0], out[0] != nil
}

// megaLookup probes the megaflow tier: each mask group projects pkt to its
// masked tuple and checks the tuple's two candidate slots (2-way set
// associativity — two aggregates whose hashes share a primary slot would
// otherwise evict each other on every alternation). A hit (entry may be nil
// — a cached table miss) is valid only at stamp, pkt's current stamp (every
// group keeps the dst MAC, so one stamp serves them all). Lock-free.
func (t *FlowTable) megaLookup(pkt policy.Packet, stamp uint64) (*FlowEntry, bool) {
	groups := t.megaGroups.Load()
	if groups == nil {
		return nil, false
	}
	for _, g := range *groups {
		key := g.mask.project(pkt)
		h := packetHash(key)
		if s := g.slots[h&(megaflowSlots-1)].Load(); s != nil && s.stamp == stamp && s.key == key {
			return s.entry, true
		}
		if s := g.slots[(h>>32)&(megaflowSlots-1)].Load(); s != nil && s.stamp == stamp && s.key == key {
			return s.entry, true
		}
	}
	return nil, false
}

// megaInstall publishes a classification into the megaflow tier under the
// mask its scan produced. Callers hold mu (read suffices): stamp is pkt's
// stamp observed under the lock, so the entry is exactly as valid as the
// scan. Group creation is copy-on-write under megaMu; at the mask cap the
// result is simply not cached.
func (t *FlowTable) megaInstall(mask lookupMask, pkt policy.Packet, stamp uint64, e *FlowEntry) {
	g := t.megaGroup(mask)
	if g == nil {
		return
	}
	key := mask.project(pkt)
	h := packetHash(key)
	// Prefer the primary slot; if it holds a different still-live aggregate,
	// take the secondary so the two coexist instead of evicting each other.
	// The occupant may answer for another dst MAC: it is live by its own
	// key's stamp.
	i := h & (megaflowSlots - 1)
	if s := g.slots[i].Load(); s != nil && s.key != key && s.stamp == t.stamp(s.key.DstMAC) {
		i = (h >> 32) & (megaflowSlots - 1)
	}
	g.slots[i].Store(&megaflowEntry{key: key, stamp: stamp, entry: e})
}

// megaGroup finds or creates the group for mask (nil at the cap).
func (t *FlowTable) megaGroup(mask lookupMask) *maskGroup {
	if groups := t.megaGroups.Load(); groups != nil {
		for _, g := range *groups {
			if g.mask == mask {
				return g
			}
		}
	}
	t.megaMu.Lock()
	defer t.megaMu.Unlock()
	var cur []*maskGroup
	if groups := t.megaGroups.Load(); groups != nil {
		cur = *groups
		for _, g := range cur {
			if g.mask == mask {
				return g
			}
		}
	}
	if len(cur) >= maxMegaflowMasks {
		return nil
	}
	g := &maskGroup{mask: mask}
	next := make([]*maskGroup, len(cur), len(cur)+1)
	copy(next, cur)
	next = append(next, g)
	t.megaGroups.Store(&next)
	return g
}

// needClassify marks a batch slot that fell through both cache tiers and
// needs the locked slow path. Never escapes LookupBatch.
var needClassify = &FlowEntry{}

// LookupBatch classifies a batch of header tuples, bumping entry counters
// by the corresponding sizes. out[i] receives keys[i]'s winning entry (nil
// on a table miss); a negative sizes[i] marks a slot to skip (an
// undecodable frame). Each slot probes the microflow cache, then the
// megaflow tier, then the classifier (publishing to both tiers), and the
// batch amortizes the costs: one RLock resolves every slow-path slot,
// per-entry counters coalesce over runs of the same entry, and cache-tier
// counters flush once.
func (t *FlowTable) LookupBatch(keys []policy.Packet, sizes []int, out []*FlowEntry) {
	var microHits, megaHits, misses uint64
	need := 0
	for i := range keys {
		if sizes[i] < 0 {
			out[i] = nil
			continue
		}
		pkt := keys[i]
		// Reload the stamp per frame: a concurrent mutation mid-batch must
		// not let later frames hit (and bump counters on) replaced entries.
		stamp := t.stamp(pkt.DstMAC)
		if s := t.cache[microflowIndex(pkt)].Load(); s != nil && s.stamp == stamp && s.pkt == pkt {
			microHits++
			out[i] = s.entry
			continue
		}
		if e, ok := t.megaLookup(pkt, stamp); ok {
			megaHits++
			out[i] = e
			continue
		}
		out[i] = needClassify
		need++
	}
	if need > 0 {
		t.mu.RLock()
		installed := false
		for i := range keys {
			if out[i] != needClassify {
				continue
			}
			pkt := keys[i]
			stamp := t.stamp(pkt.DstMAC)
			// An earlier miss in this batch may have installed the covering
			// megaflow aggregate; re-probe before paying the classifier. The
			// batch's first miss has no earlier one to profit from and goes
			// straight to the classifier, so a batch of one that fell through
			// both tiers is always a miss.
			if installed {
				if e, ok := t.megaLookup(pkt, stamp); ok {
					megaHits++
					out[i] = e
					continue
				}
			}
			installed = true
			misses++
			e, mask := t.classifyLocked(pkt)
			// Publish at the stamp observed under the read lock: mutations
			// take the write lock, so the stamp cannot move while we hold
			// it and the slot is exactly as valid as the scan that produced
			// it. The megaflow entry is keyed by the union mask of the
			// fields the scan examined, so the whole aggregate of packets
			// that would take the identical scan hits it.
			t.cache[microflowIndex(pkt)].Store(&microflowSlot{pkt: pkt, stamp: stamp, entry: e})
			t.megaInstall(mask, pkt, stamp, e)
			out[i] = e
		}
		t.mu.RUnlock()
	}
	// Flush per-entry counters, coalescing runs of the same entry (batch
	// traffic is bursty per flow, so runs are common) into one atomic add.
	var run *FlowEntry
	var runPkts, runBytes uint64
	for i, e := range out {
		if e == nil || sizes[i] < 0 {
			continue
		}
		if e != run {
			if run != nil {
				atomic.AddUint64(&run.Packets, runPkts)
				atomic.AddUint64(&run.Bytes, runBytes)
			}
			run, runPkts, runBytes = e, 0, 0
		}
		runPkts++
		runBytes += uint64(sizes[i])
	}
	if run != nil {
		atomic.AddUint64(&run.Packets, runPkts)
		atomic.AddUint64(&run.Bytes, runBytes)
	}
	if microHits > 0 {
		t.cacheHits.Add(microHits)
	}
	if megaHits > 0 {
		t.megaflowHits.Add(megaHits)
	}
	if misses > 0 {
		t.cacheMisses.Add(misses)
	}
}

// classifyLocked finds the winning entry for pkt via the match index: the
// packet's dst-MAC bucket, its in-port bucket, and the residual list are
// each scanned for their first cover, and the best of the three candidates
// wins. Every rule that could cover pkt lives in exactly one of those
// buckets, and each bucket is in table order, so the result is identical to
// a linear scan of the full table. The returned mask is the union of the
// constrained fields of every rule the scan called Covers on, seeded with
// the bucket-selection fields — the megaflow cache key for this result.
// Callers hold mu (read or write).
func (t *FlowTable) classifyLocked(pkt policy.Packet) (*FlowEntry, lookupMask) {
	mask := lookupMask{set: 1<<policy.FPort | 1<<policy.FDstMAC}
	best := t.scanBucket(t.byDstMAC[pkt.DstMAC], pkt, nil, &mask)
	best = t.scanBucket(t.byPort[pkt.Port], pkt, best, &mask)
	best = t.scanBucket(t.residual, pkt, best, &mask)
	return best, mask
}

// scanBucket returns the better of best and the first entry in list
// covering pkt, unioning each examined rule's fields into mask. The list is
// in table order, so the scan stops as soon as the remaining entries cannot
// beat best; rules past the break are not examined and not masked (the
// break position depends only on best, which evolves identically for every
// packet with the same masked projection).
func (t *FlowTable) scanBucket(list []*FlowEntry, pkt policy.Packet, best *FlowEntry, mask *lookupMask) *FlowEntry {
	for _, e := range list {
		if best != nil && !less(e, best) {
			break
		}
		mask.add(e.Match)
		if e.Match.Covers(pkt) {
			return e
		}
	}
	return best
}

// Len returns the number of installed rules — the data-plane state metric
// of Figures 7 and 9.
func (t *FlowTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.byRule)
}

// CacheStats returns the flow-cache counters, in O(1).
func (t *FlowTable) CacheStats() CacheStats {
	st := CacheStats{
		Hits:          t.cacheHits.Value(),
		Misses:        t.cacheMisses.Value(),
		Invalidations: t.cacheInvalidations.Value(),
		MegaflowHits:  t.megaflowHits.Value(),
	}
	if groups := t.megaGroups.Load(); groups != nil {
		st.MegaflowMasks = len(*groups)
	}
	return st
}

// CacheOccupancy counts the slots valid now in each cache tier. It scans
// every slot array, so it is meant for scrape-time gauges, not hot paths.
func (t *FlowTable) CacheOccupancy() (microflow, megaflow int) {
	for i := range t.cache {
		if s := t.cache[i].Load(); s != nil && s.stamp == t.stamp(s.pkt.DstMAC) {
			microflow++
		}
	}
	if groups := t.megaGroups.Load(); groups != nil {
		for _, g := range *groups {
			for i := range g.slots {
				if s := g.slots[i].Load(); s != nil && s.stamp == t.stamp(s.key.DstMAC) {
					megaflow++
				}
			}
		}
	}
	return microflow, megaflow
}

// ordered returns the installed rules in table order, sorted from byRule
// when called: O(n log n), for dumps and tests, never for lookups.
func (t *FlowTable) ordered() []*FlowEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*FlowEntry, 0, len(t.byRule))
	for _, e := range t.byRule {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b *FlowEntry) int {
		return cmp.Or(cmp.Compare(b.Priority, a.Priority), cmp.Compare(a.seq, b.seq))
	})
	return out
}

// Entries returns a snapshot of the rules in table order. Counter values
// are loaded atomically, so the snapshot is consistent even while traffic
// is being forwarded.
func (t *FlowTable) Entries() []FlowEntry {
	es := t.ordered()
	out := make([]FlowEntry, len(es))
	for i, e := range es {
		out[i] = FlowEntry{
			Packets:  atomic.LoadUint64(&e.Packets),
			Bytes:    atomic.LoadUint64(&e.Bytes),
			Match:    e.Match,
			Priority: e.Priority,
			Actions:  e.Actions,
			Cookie:   e.Cookie,
		}
	}
	return out
}

// Dump renders the table like "ovs-ofctl dump-flows". The snapshot is taken
// under the read lock; formatting happens outside it.
func (t *FlowTable) Dump() string {
	var b strings.Builder
	for _, e := range t.Entries() {
		fmt.Fprintf(&b, "%s n_packets=%d n_bytes=%d\n", e.String(), e.Packets, e.Bytes)
	}
	return b.String()
}
