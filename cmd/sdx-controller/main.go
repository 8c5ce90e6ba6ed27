// sdx-controller is the SDX controller daemon: it terminates the
// participants' BGP sessions (route server), compiles their policies into
// flow rules, programs the fabric switches over OpenFlow, answers ARP for
// virtual next hops, and reacts to BGP updates with the two-stage
// fast-path/background pipeline.
//
// Usage:
//
//	sdx-controller -config sdx.json \
//	    -bgp-listen 127.0.0.1:1179 -of-listen 127.0.0.1:6633
//
// Every role of a replicated deployment is this daemon. A leader adds
// -log-listen: each input it sequences (UPDATE, session death, compile
// point) is also streamed to followers. A follower replaces the BGP listener
// with -log-addr and applies the leader's entries through the same code, so
// it holds the leader's state; the follower the switches dial is the active
// controller, and one given -primary-addr is a standby that opens its
// OpenFlow listener only once that address stops answering:
//
//	sdx-controller -config sdx.json -bgp-listen :1179 -of-listen :6630 -log-listen :2179
//	sdx-controller -config sdx.json -log-addr :2179 -of-listen :6633
//	sdx-controller -config sdx.json -log-addr :2179 -of-listen :6633 -primary-addr :6633
//
// The configuration file format is documented in internal/config; an
// example lives in examples/quickstart (and the README).
package main

import (
	"errors"
	"flag"
	"log"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/config"
	"sdx/internal/core"
	"sdx/internal/openflow"
	"sdx/internal/replog"
	"sdx/internal/routeserver"
	"sdx/internal/telemetry"
)

func main() {
	var (
		configPath = flag.String("config", "sdx.json", "topology and policy configuration")
		bgpListen  = flag.String("bgp-listen", "127.0.0.1:1179", "route-server BGP listen address")
		ofListen   = flag.String("of-listen", "127.0.0.1:6633", "OpenFlow listen address")
		reoptAfter = flag.Duration("reoptimize-after", 2*time.Second,
			"background recompilation delay after the last BGP change (burst detection)")
		telemetryAddr = flag.String("telemetry-addr", "",
			"HTTP listen address for /metrics and /debug/sdx (empty = no listener)")
		pprofAddr = flag.String("pprof-addr", "",
			"HTTP listen address for net/http/pprof (may equal -telemetry-addr to share its mux)")
		logListen = flag.String("log-listen", "",
			"leader: stream every sequenced input to followers on this address (empty = no followers)")
		logAddr = flag.String("log-addr", "",
			"follower: apply the leader's input stream from this address instead of terminating BGP sessions")
		primaryAddr = flag.String("primary-addr", "",
			"standby: the active controller's OpenFlow address to probe; -of-listen opens once it stops answering")
		probeEvery = flag.Duration("probe-interval", 500*time.Millisecond, "standby: primary liveness probe interval")
		probeFails = flag.Int("probe-failures", 3, "standby: consecutive probe failures before promotion")
	)
	flag.Parse()

	cfg, err := config.Load(*configPath)
	if err != nil {
		log.Fatalf("loading config: %v", err)
	}

	opts := cfg.ControllerOptions()

	// Telemetry is always collected (the instruments are cheap atomics);
	// -telemetry-addr only controls whether it is served over HTTP. The
	// tracer mirrors its events to the log, which is where the per-compile
	// summary line comes from.
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	tracer.SetLogf(log.Printf)
	opts.Telemetry = reg
	opts.Tracer = tracer

	rs := routeserver.New(nil)
	rs.EnableTelemetry(reg)
	ctrl := core.NewController(rs, opts)
	if err := cfg.Apply(ctrl); err != nil {
		log.Fatalf("applying config: %v", err)
	}

	switches := core.NewSwitchServer(reg)
	switches.HandlePacketIn = ctrl.HandlePacketIn
	switches.Metrics = openflow.NewMetrics(reg)
	switches.Logf = log.Printf

	// The frontend sequences and applies every input; the replica hangs the
	// two-stage reaction of §4.3.2 on it. A follower has no speaker: its
	// input is the leader's sequence.
	follower := *logAddr != ""
	localID := netip.MustParseAddr("10.255.255.254")
	if cfg.RouterID != "" {
		localID = netip.MustParseAddr(cfg.RouterID)
	}
	var speaker *bgp.Speaker
	if !follower {
		speaker = bgp.NewSpeaker(bgp.SessionConfig{
			LocalAS:  cfg.LocalAS,
			LocalID:  localID,
			HoldTime: bgp.DefaultHoldTime,
			Metrics:  bgp.NewMetrics(reg),
		})
		speaker.Logf = log.Printf
	}
	fe := routeserver.NewFrontend(rs, speaker)
	fe.EnableTelemetry(reg)
	rep := core.NewReplica(ctrl, switches)
	rep.Logf = log.Printf
	rep.EnableTelemetry(reg)
	rep.Drive(fe)
	owns := cfg.Ownership()
	fe.Ownership = func(p routeserver.ID, prefix netip.Prefix) bool {
		for _, owned := range owns[string(p)] {
			if owned == prefix {
				return true
			}
		}
		return false
	}
	for _, pc := range cfg.Participants {
		for _, port := range pc.Ports {
			if err := fe.RegisterPeer(netip.MustParseAddr(port.RouterIP), routeserver.ID(pc.ID)); err != nil {
				log.Fatalf("registering peer: %v", err)
			}
		}
	}

	if *telemetryAddr != "" {
		var mounts []telemetry.Mount
		if *pprofAddr == *telemetryAddr {
			mounts = telemetry.PprofMounts()
		}
		tsrv, err := telemetry.Serve(*telemetryAddr, reg, tracer, mounts...)
		if err != nil {
			log.Fatalf("telemetry listen: %v", err)
		}
		log.Printf("telemetry on http://%v/metrics (events at /debug/sdx)", tsrv.Addr())
		if len(mounts) > 0 {
			log.Printf("pprof on http://%v/debug/pprof/", tsrv.Addr())
		}
	}
	if *pprofAddr != "" && *pprofAddr != *telemetryAddr {
		psrv, err := telemetry.Serve(*pprofAddr, reg, tracer, telemetry.PprofMounts()...)
		if err != nil {
			log.Fatalf("pprof listen: %v", err)
		}
		log.Printf("pprof on http://%v/debug/pprof/", psrv.Addr())
	}

	// stop is closed once the participant sessions have been told goodbye;
	// everything else unwinds from it.
	stop := make(chan struct{})
	closeOnStop := func(ln net.Listener) {
		go func() {
			<-stop
			ln.Close()
		}()
	}
	// reopt is the background stage's burst detector: every quick-stage
	// reaction pushes the next compile point reoptAfter into the future.
	// Only the leader runs one; followers compile where the leader did.
	var reopt *time.Timer

	if follower {
		c := &replog.Consumer{Addr: *logAddr, Apply: fe.Apply, Logf: log.Printf}
		c.EnableTelemetry(reg, "follower")
		go func() {
			if err := c.Run(stop); err != nil {
				log.Fatalf("log consumer: %v", err)
			}
		}()
		log.Printf("following the input log at %v", *logAddr)
	} else {
		if *logListen != "" {
			fe.Log = replog.NewLog()
			fe.Log.EnableTelemetry(reg)
			logLn, err := net.Listen("tcp", *logListen)
			if err != nil {
				log.Fatalf("log listen: %v", err)
			}
			log.Printf("input log streaming on %v", logLn.Addr())
			closeOnStop(logLn)
			go (&replog.StreamServer{Log: fe.Log, Logf: log.Printf}).Serve(logLn)
		}
		reopt = time.AfterFunc(*reoptAfter, func() {
			if err := fe.Mark(); err != nil {
				log.Printf("background recompilation: %v", err)
			}
		})
		reopt.Stop()
		react := fe.OnPrefixes
		fe.OnPrefixes = func(prefixes []netip.Prefix) {
			react(prefixes)
			reopt.Reset(*reoptAfter)
		}
		// The initial compilation is the compile point at sequence 1, so a
		// follower replays it too.
		if err := fe.Mark(); err != nil {
			log.Fatalf("initial compilation: %v", err)
		}
		bgpAddr, err := speaker.Listen(*bgpListen)
		if err != nil {
			log.Fatalf("bgp listen: %v", err)
		}
		log.Printf("route server listening on %v (AS%d, id %v)", bgpAddr, cfg.LocalAS, localID)
	}

	// Graceful teardown on SIGINT/SIGTERM, in dependency order: stop the
	// pending background recompilation, send CEASE / Administrative Shutdown
	// (RFC 4486 subcode 2) to every participant session so their routers
	// drop our routes without waiting out hold timers, then close the
	// listeners, which unblocks the accept loop below.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("%v: shutting down", sig)
		if !follower {
			reopt.Stop()
			speaker.Shutdown()
		}
		close(stop)
	}()

	// A standby holds the desired state but no switches while the primary
	// answers TCP probes. The active controller and its standby share one
	// -of-listen address: the dead primary frees it, so the switches' redial
	// loops land on whichever replica is active.
	if *primaryAddr != "" {
		log.Printf("standby: probing primary %v every %v", *primaryAddr, *probeEvery)
		failures := 0
		for failures < *probeFails {
			select {
			case <-stop:
				log.Printf("shutdown complete")
				return
			case <-time.After(*probeEvery):
			}
			conn, err := net.DialTimeout("tcp", *primaryAddr, *probeEvery)
			if err != nil {
				failures++
				log.Printf("standby: primary probe failed (%d/%d): %v", failures, *probeFails, err)
				continue
			}
			conn.Close()
			failures = 0
		}
		log.Printf("standby: primary unreachable, promoting at log seq %d", fe.Applied())
	}
	rep.Promote()

	// OpenFlow switch connections.
	ln, err := net.Listen("tcp", *ofListen)
	if err != nil {
		log.Fatalf("openflow listen: %v", err)
	}
	log.Printf("openflow listening on %v", ln.Addr())
	closeOnStop(ln)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				log.Printf("shutdown complete")
				return
			}
			log.Fatalf("openflow accept: %v", err)
		}
		// The switch server handshakes, reconciles the switch's flow table
		// against the last compilation (no wipe: adds first, then strict
		// deletes of stale entries), and runs the PACKET_IN loop.
		go switches.Serve(conn)
	}
}
