package routeserver

import (
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"sdx/internal/bgp"
)

// TestShardedApplyStress exercises the sharded apply path and the per-peer
// emitters under -race: concurrent sessions advertising and withdrawing
// overlapping prefixes while ReadvertiseAll and FlushParticipant run
// against them. The assertions are light on purpose — the test's job is to
// give the race detector interleavings, and to prove the engine ends in a
// consistent state rather than a deadlock.
func TestShardedApplyStress(t *testing.T) {
	fe, addr := newLiveRouteServer(t, nil)
	clients := []*testClient{
		dialClient(t, addr, 65001, "10.0.0.1"),
		dialClient(t, addr, 65002, "10.0.0.2"),
		dialClient(t, addr, 65003, "10.0.0.3"),
	}
	ases := []uint32{65001, 65002, 65003}

	prefixes := make([]netip.Prefix, 64)
	for i := range prefixes {
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 30, byte(i), 0}), 24)
	}

	var wg, writers sync.WaitGroup
	stop := make(chan struct{})

	// Writers: each session streams interleaved multi-prefix updates.
	for ci, c := range clients {
		writers.Add(1)
		go func(ci int, c *testClient) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			for round := 0; round < 150; round++ {
				u := &bgp.Update{
					Attrs: *bgp.Intern(bgp.PathAttrs{
						ASPath: []bgp.ASPathSegment{{Type: bgp.ASSequence,
							ASNs: []uint32{ases[ci], uint32(65100 + rng.Intn(3))}}},
						NextHop: netip.AddrFrom4([4]byte{192, 0, 2, byte(ci + 1)}),
					}),
				}
				for i, n := 0, 1+rng.Intn(8); i < n; i++ {
					p := prefixes[rng.Intn(len(prefixes))]
					if rng.Intn(3) == 0 {
						u.Withdrawn = append(u.Withdrawn, p)
					} else {
						u.NLRI = append(u.NLRI, p)
					}
				}
				if err := c.peer.Send(u); err != nil {
					return // session torn down by test end
				}
			}
		}(ci, c)
	}

	// Full-table re-advertisements racing the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				fe.ReadvertiseAll()
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Flushes racing both: participant B repeatedly loses all its routes,
	// as if its session bounced, while its live session keeps advertising.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				fe.propagatePrefixes(fe.Server.FlushParticipant("B"))
				time.Sleep(3 * time.Millisecond)
			}
		}
	}()

	// Readers: concurrent decision-process queries across the shards.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
				p := prefixes[rng.Intn(len(prefixes))]
				fe.Server.BestFor("A", p)
				fe.Server.BestTwo(p)
				fe.Server.Prefixes()
			}
		}
	}()

	// Let the writers finish their rounds, then stop the churners.
	writers.Wait()
	close(stop)
	wg.Wait()

	// Consistency: every prefix's BestFor answer matches a full rescan of
	// the candidates (cache vs truth).
	for _, p := range prefixes {
		cached, ok := fe.Server.BestFor("A", p)
		if !ok {
			continue
		}
		if cached.Prefix != p {
			t.Fatalf("BestFor(%v) returned route for %v", p, cached.Prefix)
		}
	}
}
