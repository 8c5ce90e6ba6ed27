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
	"sync"
	"syscall"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/config"
	"sdx/internal/core"
	"sdx/internal/openflow"
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
		parallelism = flag.Int("parallelism", 0,
			"policy-compilation workers: 1 sequential, N>1 workers, <0 one per CPU (overrides config)")
		telemetryAddr = flag.String("telemetry-addr", "",
			"HTTP listen address for /metrics and /debug/sdx (empty = no listener)")
		pprofAddr = flag.String("pprof-addr", "",
			"HTTP listen address for net/http/pprof (may equal -telemetry-addr to share its mux)")
	)
	flag.Parse()

	cfg, err := config.Load(*configPath)
	if err != nil {
		log.Fatalf("loading config: %v", err)
	}

	opts := cfg.ControllerOptions()
	if *parallelism != 0 {
		opts.Compile.Parallelism = *parallelism
	}

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
	d := &daemon{
		ctrl:       ctrl,
		switches:   switches,
		reoptAfter: *reoptAfter,
	}

	// Route-server frontend over live BGP.
	localID := netip.MustParseAddr("10.255.255.254")
	if cfg.RouterID != "" {
		localID = netip.MustParseAddr(cfg.RouterID)
	}
	speaker := bgp.NewSpeaker(bgp.SessionConfig{
		LocalAS:  cfg.LocalAS,
		LocalID:  localID,
		HoldTime: bgp.DefaultHoldTime,
		Metrics:  bgp.NewMetrics(reg),
	})
	fe := routeserver.NewFrontend(rs, speaker)
	fe.EnableTelemetry(reg)
	fe.NextHop = ctrl.NextHopFor
	owns := cfg.Ownership()
	fe.Ownership = func(p routeserver.ID, prefix netip.Prefix) bool {
		for _, owned := range owns[string(p)] {
			if owned == prefix {
				return true
			}
		}
		return false
	}
	fe.OnPrefixes = d.onRoutePrefixes
	d.frontend = fe
	for _, pc := range cfg.Participants {
		for _, port := range pc.Ports {
			if err := fe.RegisterPeer(netip.MustParseAddr(port.RouterIP), routeserver.ID(pc.ID)); err != nil {
				log.Fatalf("registering peer: %v", err)
			}
		}
	}
	bgpAddr, err := speaker.Listen(*bgpListen)
	if err != nil {
		log.Fatalf("bgp listen: %v", err)
	}
	log.Printf("route server listening on %v (AS%d, id %v)", bgpAddr, cfg.LocalAS, localID)

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

	// Initial compilation.
	if _, err := d.recompile(); err != nil {
		log.Fatalf("initial compilation: %v", err)
	}

	// OpenFlow switch connections.
	ln, err := net.Listen("tcp", *ofListen)
	if err != nil {
		log.Fatalf("openflow listen: %v", err)
	}
	log.Printf("openflow listening on %v", ln.Addr())

	// Graceful teardown on SIGINT/SIGTERM, in dependency order: stop the
	// pending background recompilation, send CEASE / Administrative Shutdown
	// (RFC 4486 subcode 2) to every participant session so their routers
	// drop our routes without waiting out hold timers, then close the
	// OpenFlow listener, which unblocks the accept loop below.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("%v: shutting down (sending CEASE administrative shutdown to peers)", sig)
		d.stopReopt()
		speaker.Shutdown()
		ln.Close()
	}()

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

// daemon holds the controller's runtime state shared between the BGP and
// OpenFlow sides. Switch-facing state (live channels, last committed base,
// outstanding fast-path rules) lives in the core.SwitchServer.
type daemon struct {
	ctrl       *core.Controller
	switches   *core.SwitchServer
	frontend   *routeserver.Frontend
	reoptAfter time.Duration

	mu     sync.Mutex
	reoptT *time.Timer
}

// stopReopt cancels any pending background recompilation timer so shutdown
// does not race a recompile against the closing switch connections.
func (d *daemon) stopReopt() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.reoptT != nil {
		d.reoptT.Stop()
	}
}

// recompile runs the full pipeline and diff-pushes the base table to every
// connected switch.
func (d *daemon) recompile() (*core.CompileResult, error) {
	res, err := d.ctrl.Compile()
	if err != nil {
		return nil, err
	}
	if err := d.switches.SetBase(res); err != nil {
		return nil, err
	}
	// The per-compile summary line (duration, rules, FECs, parallelism) is
	// emitted by the controller's tracer, which mirrors to this log.
	// Refresh participants whose virtual next hops moved; unchanged groups
	// kept their VNHs, so this is mostly idempotent.
	if d.frontend != nil {
		go d.frontend.ReadvertiseAll()
	}
	return res, nil
}

// onRoutePrefixes is the two-stage reaction of §4.3.2: the quick stage
// compiles and installs rules for the affected prefixes immediately; the
// background stage reruns the full pipeline once the burst has quiesced.
func (d *daemon) onRoutePrefixes(prefixes []netip.Prefix) {
	fast, err := d.ctrl.FastReact(prefixes)
	if err != nil {
		log.Printf("fast path: %v", err)
		return
	}
	if err := d.switches.PushFastAll(fast); err != nil {
		log.Printf("pushing fast rules: %v", err)
	}
	d.mu.Lock()
	if d.reoptT != nil {
		d.reoptT.Stop()
	}
	d.reoptT = time.AfterFunc(d.reoptAfter, func() {
		if _, err := d.recompile(); err != nil {
			log.Printf("background recompilation: %v", err)
		}
	})
	d.mu.Unlock()
	// The quick-stage summary line is the tracer's "fastpath" event.
}
