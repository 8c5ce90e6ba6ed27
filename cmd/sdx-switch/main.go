// sdx-switch is the software fabric switch daemon. Ports are UDP tunnels:
// each fabric port binds a local UDP socket and forwards emitted frames to
// a peer address (the attached router's tunnel endpoint), so a whole
// exchange can be emulated across processes or hosts with no special
// privileges. The flow table is programmed by an sdx-controller over
// OpenFlow.
//
// Usage:
//
//	sdx-switch -controller 127.0.0.1:6633 -dpid 1 \
//	    -port 1=127.0.0.1:9001/127.0.0.1:9101 \
//	    -port 2=127.0.0.1:9002/127.0.0.1:9102
//
// Each -port flag is NUMBER=LISTEN/PEER: frames arriving on LISTEN enter
// the fabric on port NUMBER; frames the fabric emits on NUMBER are sent to
// PEER.
//
// Traffic is observed through the flow table itself: every rule's packet
// and byte counters (OpenFlow flow stats) plus per-port and per-reason drop
// counters on -telemetry-addr's /metrics.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sdx/internal/dataplane"
	"sdx/internal/telemetry"
)

type portFlag struct {
	specs []portSpec
}

type portSpec struct {
	number uint16
	listen string
	peer   string
}

func (f *portFlag) String() string { return fmt.Sprintf("%d ports", len(f.specs)) }

func (f *portFlag) Set(v string) error {
	numAddr := strings.SplitN(v, "=", 2)
	if len(numAddr) != 2 {
		return fmt.Errorf("want NUMBER=LISTEN/PEER, got %q", v)
	}
	n, err := strconv.ParseUint(numAddr[0], 10, 16)
	if err != nil || n == 0 {
		return fmt.Errorf("bad port number %q", numAddr[0])
	}
	addrs := strings.SplitN(numAddr[1], "/", 2)
	if len(addrs) != 2 {
		return fmt.Errorf("want LISTEN/PEER in %q", numAddr[1])
	}
	f.specs = append(f.specs, portSpec{number: uint16(n), listen: addrs[0], peer: addrs[1]})
	return nil
}

func main() {
	var (
		controller    = flag.String("controller", "127.0.0.1:6633", "controller OpenFlow address")
		dpid          = flag.Uint64("dpid", 1, "datapath id")
		telemetryAddr = flag.String("telemetry-addr", "",
			"HTTP listen address for /metrics (empty = no listener)")
		minBackoff = flag.Duration("reconnect-min-backoff", 100*time.Millisecond,
			"initial controller-redial backoff")
		maxBackoff = flag.Duration("reconnect-max-backoff", 30*time.Second,
			"controller-redial backoff ceiling")
		pprofAddr = flag.String("pprof-addr", "",
			"HTTP listen address for net/http/pprof (may equal -telemetry-addr to share its mux)")
		ports portFlag
	)
	flag.Var(&ports, "port", "fabric port as NUMBER=LISTEN/PEER (repeatable)")
	flag.Parse()
	if len(ports.specs) == 0 {
		log.Fatal("at least one -port is required")
	}

	sw := dataplane.NewSwitch(*dpid)
	reg := telemetry.NewRegistry()
	sw.EnableTelemetry(reg)

	if *telemetryAddr != "" {
		// pprof rides the telemetry listener when the addresses coincide;
		// otherwise it gets its own listener below.
		var mounts []telemetry.Mount
		if *pprofAddr == *telemetryAddr {
			mounts = telemetry.PprofMounts()
		}
		tsrv, err := telemetry.Serve(*telemetryAddr, reg, mounts...)
		if err != nil {
			log.Fatalf("telemetry listen: %v", err)
		}
		log.Printf("telemetry on http://%v/metrics", tsrv.Addr())
		if *pprofAddr == *telemetryAddr {
			log.Printf("pprof on http://%v/debug/pprof/", tsrv.Addr())
		}
	}
	if *pprofAddr != "" && *pprofAddr != *telemetryAddr {
		psrv, err := telemetry.Serve(*pprofAddr, reg, telemetry.PprofMounts()...)
		if err != nil {
			log.Fatalf("pprof listen: %v", err)
		}
		log.Printf("pprof on http://%v/debug/pprof/", psrv.Addr())
	}
	for _, spec := range ports.specs {
		if err := attachUDPPort(sw, spec); err != nil {
			log.Fatalf("port %d: %v", spec.number, err)
		}
		log.Printf("port %d: %s -> %s", spec.number, spec.listen, spec.peer)
	}

	// Graceful teardown on SIGINT/SIGTERM: stop the controller redial loop,
	// severing the OpenFlow session.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("%v: shutting down", sig)
		close(stop)
	}()

	// Stay attached to the controller: RunController redials with
	// exponential backoff and jitter. While disconnected the switch keeps
	// forwarding on its installed flow table (fail-open) — only table-miss
	// traffic loses its punt path — and on reattach the controller
	// reconciles the table in place instead of wiping it.
	log.Printf("connecting to controller %s", *controller)
	sw.RunController(func() (net.Conn, error) {
		conn, err := net.Dial("tcp", *controller)
		if err != nil {
			log.Printf("controller %s unreachable: %v; backing off", *controller, err)
			return nil, err
		}
		log.Printf("connected to controller %s", *controller)
		return conn, nil
	}, stop, dataplane.ReconnectConfig{MinBackoff: *minBackoff, MaxBackoff: *maxBackoff})

	log.Printf("shutdown complete")
}

// attachUDPPort binds the tunnel socket and wires it to the switch port.
func attachUDPPort(sw *dataplane.Switch, spec portSpec) error {
	laddr, err := net.ResolveUDPAddr("udp", spec.listen)
	if err != nil {
		return fmt.Errorf("listen address: %w", err)
	}
	paddr, err := net.ResolveUDPAddr("udp", spec.peer)
	if err != nil {
		return fmt.Errorf("peer address: %w", err)
	}
	sock, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return err
	}
	sw.AttachPort(spec.number, func(frame []byte) {
		sock.WriteToUDP(frame, paddr)
	})
	go func() {
		buf := make([]byte, 65536)
		for {
			n, _, err := sock.ReadFromUDP(buf)
			if err != nil {
				return
			}
			frame := make([]byte, n)
			copy(frame, buf[:n])
			if err := sw.Inject(spec.number, frame); err != nil {
				log.Printf("port %d: %v", spec.number, err)
			}
		}
	}()
	return nil
}
