package bgp

import (
	"time"

	"sdx/internal/telemetry"
)

// Metrics holds the BGP session instruments shared by every session created
// with a SessionConfig that carries them: a per-FSM-state session gauge,
// per-type message counters, and a hold-timer expiry counter. The state
// gauges are pre-resolved into an array indexed by State so transitions are
// two atomic adds. A nil *Metrics is a no-op.
type Metrics struct {
	states [StateEstablished + 1]*telemetry.Gauge

	UpdatesIn        *telemetry.Counter
	UpdatesOut       *telemetry.Counter
	KeepalivesIn     *telemetry.Counter
	KeepalivesOut    *telemetry.Counter
	NotificationsIn  *telemetry.Counter
	NotificationsOut *telemetry.Counter
	OpensIn          *telemetry.Counter
	OpensOut         *telemetry.Counter
	HoldExpiries     *telemetry.Counter
	TreatAsWithdraws *telemetry.Counter

	// Persistent-neighbor resilience: dial attempts, attempts whose dial
	// or handshake failed, sessions established by the redial loop, and the
	// loop's current backoff (exposed in seconds via a scrape-time reader
	// over the nanosecond gauge).
	RedialAttempts *telemetry.Counter
	RedialFailures *telemetry.Counter
	Redials        *telemetry.Counter
	backoffNanos   *telemetry.Gauge

	// HandshakeFailures counts inbound connections whose handshake failed.
	HandshakeFailures *telemetry.Counter

	// RFC 4486 Cease visibility: sent and received CEASE notifications,
	// labeled by subcode name, so operators can tell an administrative
	// shutdown from a deprovisioning or an unspecified legacy Cease.
	ceaseIn  *telemetry.CounterVec
	ceaseOut *telemetry.CounterVec
}

// NewMetrics registers the BGP session metrics with reg and returns the
// shared instrument set. A nil registry returns nil, the no-op mode.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{}
	states := reg.GaugeVec("sdx_bgp_sessions",
		"Live BGP sessions, by FSM state.", "state")
	for st := StateIdle; st <= StateEstablished; st++ {
		m.states[st] = states.With(st.String())
	}
	in := reg.CounterVec("sdx_bgp_messages_in_total",
		"BGP messages received, by type.", "type")
	out := reg.CounterVec("sdx_bgp_messages_out_total",
		"BGP messages sent, by type.", "type")
	m.OpensIn, m.OpensOut = in.With("OPEN"), out.With("OPEN")
	m.UpdatesIn, m.UpdatesOut = in.With("UPDATE"), out.With("UPDATE")
	m.KeepalivesIn, m.KeepalivesOut = in.With("KEEPALIVE"), out.With("KEEPALIVE")
	m.NotificationsIn, m.NotificationsOut = in.With("NOTIFICATION"), out.With("NOTIFICATION")
	m.HoldExpiries = reg.Counter("sdx_bgp_hold_expiries_total",
		"BGP sessions torn down by hold-timer expiry.")
	m.TreatAsWithdraws = reg.Counter("sdx_bgp_treat_as_withdraw_total",
		"UPDATEs with recoverable attribute errors demoted to withdrawals (RFC 7606).")
	m.RedialAttempts = reg.Counter("sdx_bgp_redial_attempts_total",
		"Dial attempts by persistent-neighbor redial loops.")
	m.RedialFailures = reg.Counter("sdx_bgp_redial_failures_total",
		"Persistent-neighbor redial attempts whose dial or handshake failed.")
	m.Redials = reg.Counter("sdx_bgp_redials_total",
		"Sessions established by persistent-neighbor redial loops.")
	m.HandshakeFailures = reg.Counter("sdx_bgp_handshake_failures_total",
		"Inbound BGP connections whose handshake failed.")
	m.backoffNanos = &telemetry.Gauge{}
	reg.GaugeFunc("sdx_bgp_redial_backoff_seconds",
		"Current persistent-neighbor redial backoff.",
		func() float64 { return float64(m.backoffNanos.Value()) / 1e9 })
	m.ceaseIn = reg.CounterVec("sdx_bgp_cease_in_total",
		"CEASE notifications received, by RFC 4486 subcode.", "subcode")
	m.ceaseOut = reg.CounterVec("sdx_bgp_cease_out_total",
		"CEASE notifications sent, by RFC 4486 subcode.", "subcode")
	return m
}

// ceaseSent counts one outbound CEASE by RFC 4486 subcode.
func (m *Metrics) ceaseSent(subcode uint8) {
	if m == nil {
		return
	}
	m.ceaseOut.With(CeaseSubcodeString(subcode)).Inc()
}

// ceaseReceived counts one inbound CEASE by RFC 4486 subcode.
func (m *Metrics) ceaseReceived(subcode uint8) {
	if m == nil {
		return
	}
	m.ceaseIn.With(CeaseSubcodeString(subcode)).Inc()
}

// treatAsWithdraw counts one UPDATE demoted to withdrawals per RFC 7606.
func (m *Metrics) treatAsWithdraw() {
	if m == nil {
		return
	}
	m.TreatAsWithdraws.Inc()
}

// redialAttempt counts one persistent-neighbor dial attempt.
func (m *Metrics) redialAttempt() {
	if m == nil {
		return
	}
	m.RedialAttempts.Inc()
}

// redialFailed counts one redial attempt whose dial or handshake failed.
func (m *Metrics) redialFailed() {
	if m == nil {
		return
	}
	m.RedialFailures.Inc()
}

// handshakeFailed counts one inbound connection whose handshake failed.
func (m *Metrics) handshakeFailed() {
	if m == nil {
		return
	}
	m.HandshakeFailures.Inc()
}

// redialEstablished counts one session brought up by a redial loop.
func (m *Metrics) redialEstablished() {
	if m == nil {
		return
	}
	m.Redials.Inc()
}

// setRedialBackoff records the redial loop's current backoff interval.
func (m *Metrics) setRedialBackoff(d time.Duration) {
	if m == nil {
		return
	}
	m.backoffNanos.Set(int64(d))
}

// enter counts a new session appearing in state st.
func (m *Metrics) enter(st State) {
	if m == nil {
		return
	}
	m.states[st].Add(1)
}

// transition moves a live session from old to new.
func (m *Metrics) transition(old, new State) {
	if m == nil {
		return
	}
	m.states[old].Add(-1)
	m.states[new].Add(1)
}

// leave counts a session in state st shutting down.
func (m *Metrics) leave(st State) {
	if m == nil {
		return
	}
	m.states[st].Add(-1)
}

func (m *Metrics) msgIn(msg Message) {
	if m == nil {
		return
	}
	switch msg.(type) {
	case *Open:
		m.OpensIn.Inc()
	case *Update:
		m.UpdatesIn.Inc()
	case *Keepalive:
		m.KeepalivesIn.Inc()
	case *Notification:
		m.NotificationsIn.Inc()
	}
}

func (m *Metrics) msgOut(msg Message) {
	if m == nil {
		return
	}
	switch msg.(type) {
	case *Open:
		m.OpensOut.Inc()
	case *Update:
		m.UpdatesOut.Inc()
	case *Keepalive:
		m.KeepalivesOut.Inc()
	case *Notification:
		m.NotificationsOut.Inc()
	}
}

func (m *Metrics) holdExpired() {
	if m == nil {
		return
	}
	m.HoldExpiries.Inc()
}
