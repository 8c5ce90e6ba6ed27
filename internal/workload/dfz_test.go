package workload

import (
	"runtime"
	"runtime/debug"
	"testing"

	"sdx/internal/bgp"
	"sdx/internal/routeserver"
)

func TestGenerateDFZShape(t *testing.T) {
	const nMembers, nPrefixes = 20, 20_000
	d := GenerateDFZ(42, nMembers, nPrefixes)

	if len(d.Members) != nMembers || len(d.Prefixes) != nPrefixes {
		t.Fatalf("got %d members, %d prefixes", len(d.Members), len(d.Prefixes))
	}

	// Prefix lengths follow the DFZ distribution: mostly /24s, nothing
	// outside /16../24, strictly increasing disjoint blocks.
	slash24 := 0
	for i, p := range d.Prefixes {
		if p.Bits() < 16 || p.Bits() > 24 {
			t.Fatalf("prefix %v outside the modeled /16../24 range", p)
		}
		if p.Bits() == 24 {
			slash24++
		}
		if i > 0 && !d.Prefixes[i-1].Addr().Less(p.Addr()) {
			t.Fatalf("prefixes not strictly increasing at %d: %v then %v",
				i, d.Prefixes[i-1], p)
		}
		if p.Overlaps(d.Prefixes[(i+1)%nPrefixes]) {
			t.Fatalf("overlapping blocks: %v and %v", p, d.Prefixes[(i+1)%nPrefixes])
		}
	}
	if frac := float64(slash24) / nPrefixes; frac < 0.55 || frac > 0.65 {
		t.Fatalf("/24 fraction %.2f, want ≈0.60", frac)
	}

	// Announcer sets: 1-3 members, valid indices, primary distinct.
	total := 0
	for i := range d.Prefixes {
		anns := d.Announcers(i)
		if len(anns) < 1 || len(anns) > 3 {
			t.Fatalf("prefix %d has %d announcers", i, len(anns))
		}
		for j, mi := range anns {
			if mi < 0 || mi >= nMembers {
				t.Fatalf("prefix %d announcer %d out of range", i, mi)
			}
			for _, other := range anns[:j] {
				if other == mi {
					t.Fatalf("prefix %d repeats announcer %d", i, mi)
				}
			}
		}
		total += len(anns)
	}
	if d.RouteCount() != total {
		t.Fatalf("RouteCount = %d, counted %d", d.RouteCount(), total)
	}

	// Attribute interning: routes share pooled combos, and a different
	// churn salt selects combos from the same bounded pool.
	r0 := d.Route(0, 0, 0)
	if again := d.Route(0, 0, 0); again.Attrs != r0.Attrs {
		t.Fatal("same (prefix, rank, salt) must reuse the interned combo")
	}
	changed := false
	for salt := uint64(1); salt < 16 && !changed; salt++ {
		changed = d.Route(0, 0, salt).Attrs != r0.Attrs
	}
	if !changed {
		t.Fatal("no salt in 1..15 changed the attribute combo")
	}
}

func TestGenerateDFZDeterministic(t *testing.T) {
	a := GenerateDFZ(7, 10, 5_000)
	b := GenerateDFZ(7, 10, 5_000)
	for i := range a.Prefixes {
		if a.Prefixes[i] != b.Prefixes[i] {
			t.Fatalf("prefix %d: %v vs %v", i, a.Prefixes[i], b.Prefixes[i])
		}
		for rank := range a.Announcers(i) {
			ra, rb := a.Route(i, rank, 3), b.Route(i, rank, 3)
			if ra.Prefix != rb.Prefix || ra.PeerAS != rb.PeerAS || !bgp.AttrsEqual(ra.Attrs, rb.Attrs) {
				t.Fatalf("route %d/%d differs across identically seeded generators", i, rank)
			}
		}
	}
}

// dfzMaxBytesPerPrefix bounds the route server's retained heap per loaded
// DFZ prefix. The full-DFZ target is 1M prefixes in under 2 GiB resident,
// about 2,147 bytes a prefix; half of that leaves room for the process
// around the table.
const dfzMaxBytesPerPrefix = 1024

// TestDFZFootprint loads a DFZ-shaped table into the route server and bounds
// the heap it keeps, so a change that bloats per-route state fails here
// rather than at full scale.
func TestDFZFootprint(t *testing.T) {
	const nMembers, nPrefixes = 500, 100_000
	d := GenerateDFZ(1, nMembers, nPrefixes)
	rs := routeserver.New(nil)
	if err := d.Register(rs); err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		runtime.GC()
		debug.FreeOSMemory()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	if err := d.Load(rs); err != nil {
		t.Fatal(err)
	}
	// Load journals every prefix for the controller; drain it the way a
	// compiling controller would, so only the table itself is measured.
	rs.DrainTouched()
	retained := heap() - before
	// Without these the collector may reclaim the table before the second
	// reading and the test measures an empty heap.
	runtime.KeepAlive(rs)
	runtime.KeepAlive(d)

	perPrefix := float64(retained) / nPrefixes
	t.Logf("%d prefixes, %d routes: %d bytes retained, %.0f B/prefix, %.0f B/route",
		nPrefixes, d.RouteCount(), retained, perPrefix, float64(retained)/float64(d.RouteCount()))
	if perPrefix > dfzMaxBytesPerPrefix {
		t.Fatalf("route server retains %.0f bytes per prefix, want <= %d", perPrefix, dfzMaxBytesPerPrefix)
	}
}
