package routeserver

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"sdx/internal/bgp"
)

// TestTouchedPrefixesProperty pins the one contract the apply path offers
// downstream: the prefixes a mutation returns cover every prefix where any
// receiver's BestFor answer moved. With receiver-independent decisions (no
// export filter, no VRFs) the returned set is exactly that; an unchanged
// re-advertisement and a withdrawal of an absent route return nothing in
// every configuration.
func TestTouchedPrefixesProperty(t *testing.T) {
	for _, cfg := range []struct {
		name         string
		filter, vrfs bool
	}{
		{"plain", false, false},
		{"export-filter", true, false},
		{"vrfs", false, true},
		{"export-filter+vrfs", true, true},
	} {
		t.Run(cfg.name, func(t *testing.T) { runTouchedProperty(t, cfg.filter, cfg.vrfs) })
	}
}

func runTouchedProperty(t *testing.T, filter, vrfs bool) {
	const (
		nParts    = 5
		nPrefixes = 24
		nOps      = 500
	)
	rng := rand.New(rand.NewSource(13))
	ids := make([]ID, nParts)
	for i := range ids {
		ids[i] = ID(fmt.Sprintf("P%d", i))
	}
	prefixes := make([]netip.Prefix, nPrefixes)
	for i := range prefixes {
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16)
	}

	var export ExportFilter
	if filter {
		// An arbitrary but fixed third of (advertiser, receiver, prefix)
		// triples is hidden.
		export = func(adv, recv ID, p netip.Prefix) bool {
			return (int(adv[1])+2*int(recv[1])+int(p.Addr().As4()[1]))%3 != 0
		}
	}
	s := New(export)
	for i, id := range ids {
		if err := s.AddParticipant(id, uint32(65001+i)); err != nil {
			t.Fatal(err)
		}
		if vrfs && i >= 3 {
			if err := s.SetVRF(id, "tenant"); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Distinct PeerIDs keep every participant's routes distinguishable, so
	// a moved decision is always a visible BestFor change.
	randRoute := func(pi int, p netip.Prefix) bgp.Route {
		asns := make([]uint32, 1+rng.Intn(3))
		for i := range asns {
			asns[i] = uint32(65001 + pi)
		}
		return bgp.Route{
			Prefix: p,
			Attrs: bgp.Intern(bgp.PathAttrs{
				NextHop: netip.AddrFrom4([4]byte{192, 0, 2, byte(pi + 1)}),
				ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
			}),
			PeerAS: uint32(65001 + pi),
			PeerID: netip.AddrFrom4([4]byte{172, 31, 0, byte(pi + 1)}),
		}
	}

	type answer struct {
		route bgp.Route
		ok    bool
	}
	snapshot := func() map[ID]map[netip.Prefix]answer {
		out := make(map[ID]map[netip.Prefix]answer, nParts)
		for _, id := range ids {
			m := make(map[netip.Prefix]answer, nPrefixes)
			for _, p := range prefixes {
				r, ok := s.BestFor(id, p)
				m[p] = answer{r, ok}
			}
			out[id] = m
		}
		return out
	}

	before := snapshot()
	for op := 0; op < nOps; op++ {
		pi := rng.Intn(nParts)
		id := ids[pi]
		p := prefixes[rng.Intn(nPrefixes)]
		var touched []netip.Prefix
		var err error
		wantNothing := false
		var desc string
		switch k := rng.Intn(10); {
		case k < 3:
			desc = "Advertise"
			touched, err = s.Advertise(id, randRoute(pi, p))
		case k < 5:
			desc = "Withdraw"
			_, had := s.AdvertisedRoute(id, p)
			wantNothing = !had
			touched, err = s.Withdraw(id, p)
		case k < 6:
			desc = "re-Advertise"
			cur, had := s.AdvertisedRoute(id, p)
			if !had {
				continue
			}
			wantNothing = true
			touched, err = s.Advertise(id, cur)
		case k < 9:
			desc = "ApplyUpdateTouched"
			var withdrawn []netip.Prefix
			var routes []bgp.Route
			for i := 0; i < 1+rng.Intn(6); i++ {
				q := prefixes[rng.Intn(nPrefixes)]
				if rng.Intn(3) == 0 {
					withdrawn = append(withdrawn, q)
				} else {
					routes = append(routes, randRoute(pi, q))
				}
			}
			touched, err = s.ApplyUpdateTouched(id, withdrawn, routes)
		default:
			desc = "FlushParticipant"
			touched = s.FlushParticipant(id)
		}
		if err != nil {
			t.Fatalf("op %d %s(%s): %v", op, desc, id, err)
		}
		if wantNothing && len(touched) != 0 {
			t.Fatalf("op %d %s(%s, %v) is a no-op but touched %v", op, desc, id, p, touched)
		}

		after := snapshot()
		moved := make(map[netip.Prefix]bool)
		for _, rid := range ids {
			for _, q := range prefixes {
				b, a := before[rid][q], after[rid][q]
				if b.ok != a.ok || (b.ok && !routeEq(b.route, a.route)) {
					moved[q] = true
				}
			}
		}
		reported := make(map[netip.Prefix]bool, len(touched))
		for _, q := range touched {
			if reported[q] {
				t.Fatalf("op %d %s(%s): %v reported twice in %v", op, desc, id, q, touched)
			}
			reported[q] = true
		}
		for q := range moved {
			if !reported[q] {
				t.Fatalf("op %d %s(%s): a receiver's best for %v moved but touched = %v", op, desc, id, q, touched)
			}
		}
		if !filter && !vrfs {
			for q := range reported {
				if !moved[q] {
					t.Fatalf("op %d %s(%s): %v touched but no receiver's best moved", op, desc, id, q)
				}
			}
		}
		before = after
	}
}
