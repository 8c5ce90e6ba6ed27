package workload

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/netutil"
	"sdx/internal/routeserver"
)

// DFZ is a synthetic default-free-zone table: a full-Internet-scale prefix
// universe shaped like a real RIB dump rather than the laptop-sized Exchange.
// Three properties matter for the scale experiments and are modeled
// explicitly:
//
//   - Prefix lengths follow the DFZ distribution (≈60% /24s with a /16-/23
//     tail), allocated as sequentially aligned blocks the way registries
//     hand out space.
//   - Path attributes are drawn from a small per-member pool (~200 combos
//     per member): a real table holds ~1M routes but only a few thousand
//     distinct attribute sets, which is what makes interning worthwhile.
//   - Announcer sets come from a few hundred shared templates, so the
//     number of distinct (membership, best-two) signatures — and hence
//     forwarding equivalence classes — stays far below the prefix count
//     (the paper's Figure 6 observation).
//
// Everything is a pure function of (seed, index): no per-prefix metadata is
// stored beyond the prefix itself, so the generator's own footprint stays
// negligible next to the table under test.
type DFZ struct {
	Members  []Member
	Prefixes []netip.Prefix

	seed      uint64
	pools     [][]*bgp.PathAttrs // per-member interned attribute combos
	templates [][]int            // shared announcer sets, primary first
}

// attrPoolSize is the per-member attribute-combo pool: full tables reuse a
// few hundred distinct attribute sets per peer.
const attrPoolSize = 200

// dfzLenDist is the prefix-length distribution in permille, roughly the
// published DFZ breakdown (most announcements are /24s).
var dfzLenDist = []struct {
	bits     int
	permille uint64
}{
	{24, 600}, {23, 120}, {22, 120}, {21, 60}, {20, 40},
	{19, 30}, {18, 16}, {17, 8}, {16, 6},
}

// mix64 is SplitMix64's finalizer: a cheap, well-distributed hash used to
// derive every per-index decision from the seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// GenerateDFZ builds a DFZ-shaped table of nPrefixes prefixes announced by
// nMembers members. Deterministic for a given seed.
func GenerateDFZ(seed int64, nMembers, nPrefixes int) *DFZ {
	if nMembers < 2 {
		panic("workload: need at least two members")
	}
	if nMembers > 2000 {
		panic("workload: member count exceeds the port space the generator uses")
	}
	d := &DFZ{seed: uint64(seed)}

	// Members: a mix of 2-octet and 4-octet (RFC 6793) ASNs, one port each.
	for i := 0; i < nMembers; i++ {
		as := uint32(60000 - i)
		if i%3 == 0 {
			as = 4_200_000_000 + uint32(i) // 4-octet private range
		}
		d.Members = append(d.Members, Member{
			ID:    core.ID(fmt.Sprintf("AS%d", as)),
			AS:    as,
			Class: classOfHash(mix64(d.seed ^ 0xC1A55 ^ uint64(i))),
			Ports: []core.Port{{
				Number:   uint16(i + 1),
				MAC:      netutil.MAC{0x02, 0x20, byte(i >> 8), byte(i), 0x00, 0x01},
				RouterIP: netip.AddrFrom4([4]byte{172, 29, byte(i >> 8), byte(i)}),
			}},
		})
	}

	// Global ASN pool for path tails, again mixing widths.
	asns := make([]uint32, 4096)
	for i := range asns {
		h := mix64(d.seed ^ 0xA5A5 ^ uint64(i))
		if i%4 == 0 {
			asns[i] = 100_000 + uint32(h%4_000_000_000)%3_000_000_000
		} else {
			asns[i] = 1 + uint32(h%64000)
		}
	}

	// Per-member attribute pools, interned once. Attribute variety (path
	// tail, MED, communities, origin) is drawn per combo; the next hop is
	// the member's router, as a route server sees it.
	d.pools = make([][]*bgp.PathAttrs, nMembers)
	for m := range d.pools {
		pool := make([]*bgp.PathAttrs, attrPoolSize)
		for j := range pool {
			h := mix64(d.seed ^ uint64(m)<<24 ^ uint64(j))
			pathLen := 1 + int(h%5)
			path := make([]uint32, pathLen)
			path[0] = d.Members[m].AS
			for k := 1; k < pathLen; k++ {
				path[k] = asns[(h>>8+uint64(k)*7919)%uint64(len(asns))]
			}
			a := bgp.PathAttrs{
				NextHop: d.Members[m].Ports[0].RouterIP,
				ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: path}},
				Origin:  uint8(h >> 33 % 3),
			}
			if h>>16%10 < 3 {
				a.MED, a.HasMED = uint32(h>>20%100), true
			}
			for c := uint64(0); c < h>>24%3; c++ {
				a.Communities = append(a.Communities,
					uint32(d.Members[m].AS)<<16|uint32(h>>26+c)%1000)
			}
			pool[j] = bgp.Intern(a)
		}
		d.pools[m] = pool
	}

	// Announcer-set templates: 1-3 members each, skewed so large members
	// appear in many sets. The template count bounds the distinct
	// (announcer set) universe well below the prefix count.
	nTemplates := nMembers * 4
	if nTemplates < 64 {
		nTemplates = 64
	}
	if nTemplates > 2048 {
		nTemplates = 2048
	}
	d.templates = make([][]int, nTemplates)
	for t := range d.templates {
		h := mix64(d.seed ^ 0x7EA9 ^ uint64(t))
		size := 1
		switch {
		case h%100 < 20:
			size = 3
		case h%100 < 55:
			size = 2
		}
		tmpl := make([]int, 0, size)
		for k := 0; h != 0 && len(tmpl) < size; k++ {
			h = mix64(h)
			// Quadratic skew: low member indices (the "large" members)
			// announce disproportionately many prefixes.
			u := float64(h%1_000_000) / 1_000_000
			mi := int(u * u * float64(nMembers))
			if mi >= nMembers {
				mi = nMembers - 1
			}
			if !containsInt(tmpl, mi) {
				tmpl = append(tmpl, mi)
			}
		}
		d.templates[t] = tmpl
	}

	// The prefix universe: sequentially aligned blocks from 1.0.0.0 up,
	// lengths drawn from the DFZ distribution.
	d.Prefixes = make([]netip.Prefix, nPrefixes)
	cursor := uint32(1) << 24 // 1.0.0.0
	for i := range d.Prefixes {
		roll := mix64(d.seed^uint64(i)) % 1000
		bits := 24
		for _, e := range dfzLenDist {
			if roll < e.permille {
				bits = e.bits
				break
			}
			roll -= e.permille
		}
		block := uint32(1) << (32 - bits)
		cursor = (cursor + block - 1) &^ (block - 1)
		if cursor >= 0xE0000000 { // stay out of multicast space
			panic("workload: prefix universe exhausted the unicast space")
		}
		d.Prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{
			byte(cursor >> 24), byte(cursor >> 16), byte(cursor >> 8), byte(cursor),
		}), bits)
		cursor += block
	}
	return d
}

func classOfHash(h uint64) Class {
	switch {
	case h%100 < 15:
		return Content
	case h%100 < 40:
		return Transit
	default:
		return Eyeball
	}
}

// Announcers returns the member indices announcing prefix i, primary first.
// The slice is shared template storage: callers must not mutate it.
func (d *DFZ) Announcers(i int) []int {
	return d.templates[mix64(d.seed^0x7E3F^uint64(i))%uint64(len(d.templates))]
}

// Route builds announcer rank's route for prefix i. salt selects a
// different attribute combo from the announcer's pool: churn re-advertises
// with a fresh salt to force a genuine attribute change.
func (d *DFZ) Route(i, rank int, salt uint64) bgp.Route {
	mi := d.Announcers(i)[rank]
	m := &d.Members[mi]
	pool := d.pools[mi]
	attrs := pool[mix64(d.seed^salt^uint64(i)<<16^uint64(rank))%uint64(len(pool))]
	return bgp.Route{
		Prefix: d.Prefixes[i],
		Attrs:  attrs,
		PeerAS: m.AS,
		PeerID: m.Ports[0].RouterIP,
	}
}

// RouteCount is the total number of routes in the table (prefixes times
// their announcer counts).
func (d *DFZ) RouteCount() int {
	n := 0
	for i := range d.Prefixes {
		n += len(d.Announcers(i))
	}
	return n
}

// Register adds every member to the route server.
func (d *DFZ) Register(rs *routeserver.Server) error {
	for _, m := range d.Members {
		if err := rs.AddParticipant(m.ID, m.AS); err != nil {
			return err
		}
	}
	return nil
}

// Load bulk-loads the whole table into the route server via the no-diff
// Load path, striped across workers (the server's shard locks make
// concurrent loads safe). workers <= 0 uses GOMAXPROCS.
func (d *DFZ) Load(rs *routeserver.Server) error {
	rs.Reserve(len(d.Prefixes))
	workers := runtime.GOMAXPROCS(0)
	if workers > 16 {
		workers = 16
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	stripe := (len(d.Prefixes) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*stripe, (w+1)*stripe
		if hi > len(d.Prefixes) {
			hi = len(d.Prefixes)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				for rank := range d.Announcers(i) {
					r := d.Route(i, rank, 0)
					mi := d.Announcers(i)[rank]
					if err := rs.Load(d.Members[mi].ID, r); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
