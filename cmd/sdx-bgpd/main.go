// sdx-bgpd is a minimal participant border-router daemon: it peers with the
// SDX route server over BGP, announces configured prefixes, and prints the
// routes (and virtual next hops) the route server sends back. It is the
// emulation stand-in for a participant's real router and doubles as a
// debugging client against a live sdx-controller.
//
// Usage:
//
//	sdx-bgpd -routeserver 127.0.0.1:1179 -as 65001 -id 172.31.0.1 \
//	    -announce 198.51.0.0/16 -announce "203.0.0.0/8@3"
//
// Each -announce takes PREFIX or PREFIX@PATHLEN (longer AS paths lose the
// decision process). -withdraw-after N withdraws everything after N seconds
// to exercise failover, as the paper's Figure 5a does.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/telemetry"
)

type announceFlag struct {
	routes []announce
}

type announce struct {
	prefix  netip.Prefix
	pathLen int
}

func (f *announceFlag) String() string { return fmt.Sprintf("%d prefixes", len(f.routes)) }

func (f *announceFlag) Set(v string) error {
	parts := strings.SplitN(v, "@", 2)
	p, err := netip.ParsePrefix(parts[0])
	if err != nil {
		return err
	}
	a := announce{prefix: p, pathLen: 1}
	if len(parts) == 2 {
		n, err := strconv.Atoi(parts[1])
		if err != nil || n < 1 {
			return fmt.Errorf("bad path length %q", parts[1])
		}
		a.pathLen = n
	}
	f.routes = append(f.routes, a)
	return nil
}

func main() {
	var (
		server        = flag.String("routeserver", "127.0.0.1:1179", "route server address")
		asn           = flag.Uint("as", 65001, "local AS number")
		routerID      = flag.String("id", "172.31.0.1", "BGP identifier (the port's router IP)")
		nextHop       = flag.String("nexthop", "", "NEXT_HOP for announcements (default: -id)")
		withdrawAfter = flag.Duration("withdraw-after", 0, "withdraw all announcements after this long (0 = never)")
		telemetryAddr = flag.String("telemetry-addr", "",
			"HTTP listen address for /metrics and /debug/sdx (empty = no listener)")
		pprofAddr = flag.String("pprof-addr", "",
			"HTTP listen address for net/http/pprof (may equal -telemetry-addr to share its mux)")
		redialMin = flag.Duration("redial-min-backoff", 100*time.Millisecond,
			"initial route-server redial backoff")
		redialMax = flag.Duration("redial-max-backoff", 30*time.Second,
			"route-server redial backoff ceiling")
		announces announceFlag
	)
	flag.Var(&announces, "announce", "prefix to announce, PREFIX or PREFIX@PATHLEN (repeatable)")
	flag.Parse()

	id := netip.MustParseAddr(*routerID)
	nh := id
	if *nextHop != "" {
		nh = netip.MustParseAddr(*nextHop)
	}

	sessCfg := bgp.SessionConfig{
		LocalAS:  uint32(*asn),
		LocalID:  id,
		HoldTime: bgp.DefaultHoldTime,
	}
	if *telemetryAddr != "" {
		reg := telemetry.NewRegistry()
		sessCfg.Metrics = bgp.NewMetrics(reg)
		var mounts []telemetry.Mount
		if *pprofAddr == *telemetryAddr {
			mounts = telemetry.PprofMounts()
		}
		tsrv, err := telemetry.Serve(*telemetryAddr, reg, nil, mounts...)
		if err != nil {
			log.Fatalf("telemetry listen: %v", err)
		}
		log.Printf("telemetry on http://%v/metrics", tsrv.Addr())
		if len(mounts) > 0 {
			log.Printf("pprof on http://%v/debug/pprof/", tsrv.Addr())
		}
	}
	if *pprofAddr != "" && *pprofAddr != *telemetryAddr {
		psrv, err := telemetry.Serve(*pprofAddr, nil, nil, telemetry.PprofMounts()...)
		if err != nil {
			log.Fatalf("pprof listen: %v", err)
		}
		log.Printf("pprof on http://%v/debug/pprof/", psrv.Addr())
	}
	speaker := bgp.NewSpeaker(sessCfg)
	speaker.RedialMin, speaker.RedialMax = *redialMin, *redialMax
	speaker.Logf = log.Printf
	speaker.OnUpdate = func(p *bgp.Peer, u *bgp.Update) {
		for _, w := range u.Withdrawn {
			log.Printf("rib: withdraw %v", w)
		}
		for _, nlri := range u.NLRI {
			log.Printf("rib: %v via %v as-path [%s]",
				nlri, u.Attrs.NextHop, u.Attrs.ASPathString())
		}
	}

	// Announcements ride the establishment callback, so a redial after a
	// route-server restart re-announces everything: the route server's copy
	// of this router's Adj-RIB-In died with the old session.
	var withdrawn atomic.Bool
	speaker.OnEstablished = func(p *bgp.Peer) {
		log.Printf("established with route server AS%d", p.Session.PeerAS())
		if withdrawn.Load() {
			return
		}
		for _, a := range announces.routes {
			asns := make([]uint32, a.pathLen)
			for i := range asns {
				asns[i] = uint32(*asn)
			}
			u := &bgp.Update{
				Attrs: bgp.PathAttrs{
					Origin:  bgp.OriginIGP,
					NextHop: nh,
					ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
				},
				NLRI: []netip.Prefix{a.prefix},
			}
			if err := p.Send(u); err != nil {
				log.Printf("announcing %v: %v", a.prefix, err)
				return
			}
			log.Printf("announced %v (path length %d)", a.prefix, a.pathLen)
		}
	}
	speaker.OnDown = func(p *bgp.Peer, err error) {
		log.Printf("session to route server down: %v (redialing)", err)
	}

	if err := speaker.AddNeighbor(*server); err != nil {
		log.Fatalf("configuring route server neighbor: %v", err)
	}

	if *withdrawAfter > 0 {
		time.AfterFunc(*withdrawAfter, func() {
			withdrawn.Store(true)
			var prefixes []netip.Prefix
			for _, a := range announces.routes {
				prefixes = append(prefixes, a.prefix)
			}
			if err := speaker.Broadcast(&bgp.Update{Withdrawn: prefixes}); err != nil {
				log.Printf("withdrawing: %v", err)
				return
			}
			log.Printf("withdrew %d prefixes", len(prefixes))
		})
	}

	// The redial loop owns the session lifecycle until an operator signal
	// arrives; then the session is closed with CEASE / Administrative
	// Shutdown (RFC 4486 subcode 2) so the route server withdraws this
	// router's announcements immediately instead of waiting out hold timers.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sig := <-sigc
	log.Printf("%v: shutting down (sending CEASE administrative shutdown)", sig)
	speaker.Shutdown()
	log.Printf("shutdown complete")
}
