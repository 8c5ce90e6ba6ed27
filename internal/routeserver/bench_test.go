package routeserver

import (
	"fmt"
	"net/netip"
	"testing"

	"sdx/internal/bgp"
)

// bestForSink keeps BenchmarkBestFor's reads observable to the compiler.
var bestForSink int

// BenchmarkBestFor times the read side of the decision process: one
// iteration is every participant reading its best route for every prefix
// (40 participants × 10k prefixes, each prefix advertised by three of
// them). A warm-up sweep runs first, so the iterations see whatever the
// decision caches hold in steady state.
//
//   - plain: no export filter and no VRFs, the receiver-independent path
//     every benchmark workload runs.
//   - filter: a route-level export filter hides a third of the
//     (advertiser, receiver) pairs.
//   - vrf: the participants are split across four VRFs.
func BenchmarkBestFor(b *testing.B) {
	const (
		nParts    = 40
		nPrefixes = 10000
		perPrefix = 3
	)
	ids := make([]ID, nParts)
	for i := range ids {
		ids[i] = ID(fmt.Sprintf("P%02d", i))
	}
	prefixes := make([]netip.Prefix, nPrefixes)
	for i := range prefixes {
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
	}
	hideThird := func(adv, recv ID, _ uint32, _ bgp.Route) bool {
		return (int(adv[1])+int(adv[2])+2*int(recv[2]))%3 != 0
	}
	for _, mode := range []string{"plain", "filter", "vrf"} {
		b.Run(mode, func(b *testing.B) {
			s := New(nil)
			if mode == "filter" {
				s.SetRouteExportPolicy(hideThird)
			}
			for i, id := range ids {
				if err := s.AddParticipant(id, uint32(65001+i)); err != nil {
					b.Fatal(err)
				}
				if mode == "vrf" {
					if err := s.SetVRF(id, VRF(fmt.Sprintf("t%d", i%4))); err != nil {
						b.Fatal(err)
					}
				}
			}
			for pi, p := range prefixes {
				for k := 0; k < perPrefix; k++ {
					i := (pi*7 + k*13) % nParts
					r := bgp.Route{
						Prefix: p,
						Attrs: bgp.Intern(bgp.PathAttrs{
							NextHop: netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)}),
							ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{uint32(65001 + i), uint32(100 + (pi+k)%5)}}},
						}),
						PeerAS: uint32(65001 + i),
						PeerID: netip.AddrFrom4([4]byte{172, 31, 0, byte(i + 1)}),
					}
					if err := s.Load(ids[i], r); err != nil {
						b.Fatal(err)
					}
				}
			}
			sweep := func() int {
				found := 0
				for _, id := range ids {
					for _, p := range prefixes {
						if _, ok := s.BestFor(id, p); ok {
							found++
						}
					}
				}
				return found
			}
			if sweep() == 0 {
				b.Fatal("no receiver has a best route")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bestForSink += sweep()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nParts*nPrefixes), "ns/read")
		})
	}
}
