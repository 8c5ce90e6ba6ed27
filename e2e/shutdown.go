package e2e

import (
	"fmt"
	"io"
	"syscall"
	"time"
)

// ShutdownResult reports one graceful-versus-hard shutdown scenario run.
// All *_ok fields are acceptance gates; OK reports whether every one passed.
type ShutdownResult struct {
	Graceful bool `json:"graceful"`

	// CeaseAdminShutdown is the route server's count of received CEASE /
	// Administrative Shutdown notifications (RFC 4486 subcode 2) after the
	// router daemon went away.
	CeaseAdminShutdown float64 `json:"cease_admin_shutdown_received"`
	// HoldExpiries counts sessions the route server had to time out.
	HoldExpiries float64 `json:"hold_expiries"`

	// EstablishedOK: the BGP session between the real daemons came up.
	EstablishedOK bool `json:"established_ok"`
	// CeaseOK: graceful runs observed exactly the administrative-shutdown
	// Cease at the peer; hard-kill runs observed none (the session died by
	// transport error, the contrast the scenario exists to prove).
	CeaseOK bool `json:"cease_ok"`
	// SessionDownOK: the route server noticed the session ending (without
	// waiting out the hold timer in either mode — SIGKILL still closes the
	// TCP socket, so detection is immediate).
	SessionDownOK bool `json:"session_down_ok"`
	// ExitOK: graceful runs exited 0 after teardown; hard-kill runs were
	// reaped with the kill signal.
	ExitOK bool `json:"exit_ok"`
}

// OK reports whether every gate passed.
func (r *ShutdownResult) OK() bool {
	return r.EstablishedOK && r.CeaseOK && r.SessionDownOK && r.ExitOK
}

// shutdownConfig is the one-participant exchange the scenario boots.
const shutdownConfig = `{
  "localAS": 65000,
  "routerID": "10.255.255.254",
  "participants": [
    {"id": "A", "as": 65001, "ports": [
      {"number": 1, "mac": "02:0a:00:00:00:01", "routerIP": "172.31.0.1"}]}
  ]
}`

// RunShutdown boots a real sdx-controller and a real sdx-bgpd over TCP,
// waits for the session to establish, then terminates the router daemon —
// SIGTERM for the graceful run, SIGKILL for the hard one — and checks what
// the surviving route server observed: an RFC 4486 Administrative Shutdown
// Cease in the graceful case, a transport-level death (and no Cease) in the
// hard case. Progress lines go to out (nil discards).
func RunShutdown(graceful bool, out io.Writer) (*ShutdownResult, error) {
	logf := printer(out)
	bins, err := Binaries("sdx-controller", "sdx-bgpd")
	if err != nil {
		return nil, err
	}
	cfgPath, err := WriteConfig(shutdownConfig)
	if err != nil {
		return nil, err
	}

	bgpAddr, err := FreeTCPAddr()
	if err != nil {
		return nil, err
	}
	ofAddr, err := FreeTCPAddr()
	if err != nil {
		return nil, err
	}
	telAddr, err := FreeTCPAddr()
	if err != nil {
		return nil, err
	}

	ctrl, err := StartDaemon("sdx-controller", bins["sdx-controller"],
		"-config", cfgPath, "-bgp-listen", bgpAddr, "-of-listen", ofAddr,
		"-telemetry-addr", telAddr)
	if err != nil {
		return nil, err
	}
	defer ctrl.Stop()
	if _, err := ctrl.WaitLog(`route server listening`, 10*time.Second); err != nil {
		return nil, err
	}
	logf("controller up: bgp %s, telemetry %s", bgpAddr, telAddr)

	bgpd, err := StartDaemon("sdx-bgpd", bins["sdx-bgpd"],
		"-routeserver", bgpAddr, "-as", "65001", "-id", "172.31.0.1",
		"-announce", "10.50.0.0/16")
	if err != nil {
		return nil, err
	}
	defer bgpd.Stop()

	res := &ShutdownResult{Graceful: graceful}
	if _, err := bgpd.WaitLog(`established with route server`, 10*time.Second); err != nil {
		return res, err
	}
	if _, err := WaitMetric(telAddr, `sdx_bgp_sessions{state="Established"}`,
		func(v float64) bool { return v >= 1 }, 10*time.Second); err != nil {
		return res, err
	}
	res.EstablishedOK = true
	logf("session established; sending %s", map[bool]string{true: "SIGTERM", false: "SIGKILL"}[graceful])

	const ceaseSeries = `sdx_bgp_cease_in_total{subcode="admin_shutdown"}`
	if graceful {
		if err := bgpd.Signal(syscall.SIGTERM); err != nil {
			return res, err
		}
		waitErr, exited := bgpd.WaitExit(10 * time.Second)
		res.ExitOK = exited && waitErr == nil
		if v, err := WaitMetric(telAddr, ceaseSeries,
			func(v float64) bool { return v >= 1 }, 10*time.Second); err == nil {
			res.CeaseAdminShutdown = v
		}
		res.CeaseOK = res.CeaseAdminShutdown >= 1
	} else {
		bgpd.Kill()
		_, exited := bgpd.WaitExit(10 * time.Second)
		res.ExitOK = exited // SIGKILL exits non-zero by definition; reaping is the gate
	}

	// Either way the route server must notice the session ending promptly —
	// the graceful path via the Cease, the hard path via the broken socket —
	// never via hold-timer expiry.
	if _, err := WaitMetric(telAddr, `sdx_bgp_sessions{state="Established"}`,
		func(v float64) bool { return v == 0 }, 10*time.Second); err == nil {
		res.SessionDownOK = true
	}
	res.HoldExpiries, _, _ = ScrapeMetric(telAddr, `sdx_bgp_hold_expiries_total`)
	if res.HoldExpiries > 0 {
		res.SessionDownOK = false
	}
	if !graceful {
		// Give any straggling Cease a moment to land, then require none:
		// a hard-killed process cannot have said goodbye.
		time.Sleep(200 * time.Millisecond)
		res.CeaseAdminShutdown, _, _ = ScrapeMetric(telAddr, ceaseSeries)
		res.CeaseOK = res.CeaseAdminShutdown == 0
	}
	logf("cease_in=%v hold_expiries=%v session_down=%v exit=%v",
		res.CeaseAdminShutdown, res.HoldExpiries, res.SessionDownOK, res.ExitOK)
	return res, nil
}

func printer(out io.Writer) func(string, ...any) {
	return func(format string, args ...any) {
		if out != nil {
			fmt.Fprintf(out, format+"\n", args...)
		}
	}
}
