package core

import (
	"fmt"
	"net/netip"
	"sync/atomic"

	"sdx/internal/replog"
	"sdx/internal/routeserver"
	"sdx/internal/telemetry"
)

// Replica is one controller in an active-standby pair (or a reference
// replica in a test): a Controller plus a SwitchServer, driven entirely by
// the replicated UPDATE log. Because the decision process and the policy
// compiler are deterministic, every replica that applies the same entry
// sequence holds byte-identical desired state — including the
// history-dependent VNH/VMAC assignment, provided compiles happen at the
// log's KindMark positions rather than on local timers.
//
// The active replica has switches attached to its SwitchServer; a standby
// applies the same log with no switches (every push is a no-op against an
// empty switch set). Promotion is therefore not a state transfer: the
// standby already holds the desired state, and the PR 4 reconciliation in
// SwitchServer.Serve replays it into each switch that re-homes to the new
// primary — flow-stats dump, replay of desired adds, strict delete of
// stale entries, barrier. Make-before-break, no flow-table wipe.
type Replica struct {
	Ctrl     *Controller
	Switches *SwitchServer
	// Logf, when set, receives apply/promotion diagnostics.
	Logf func(format string, args ...any)

	applied     atomic.Uint64
	promoted    atomic.Bool
	mPromotions telemetry.Counter
}

// NewReplica wraps an already-configured controller (participants and
// policies registered) and its switch server.
func NewReplica(ctrl *Controller, switches *SwitchServer) *Replica {
	return &Replica{Ctrl: ctrl, Switches: switches}
}

// Applied returns the sequence number of the last applied log entry.
func (r *Replica) Applied() uint64 { return r.applied.Load() }

// Promoted reports whether Promote has been called.
func (r *Replica) Promoted() bool { return r.promoted.Load() }

// Promote marks the standby active. The desired state is already current
// (the log was being applied all along), so promotion itself is only a
// role flip plus whatever listener the caller now opens; each switch that
// dials the new primary is reconciled by SwitchServer.Serve.
func (r *Replica) Promote() {
	if r.promoted.Swap(true) {
		return
	}
	r.mPromotions.Inc()
	r.logf("core: standby promoted at log seq %d", r.applied.Load())
}

// Apply replays one log entry, mirroring the single-process daemon's
// two-stage reaction: updates and flushes run the fast path for the
// touched prefixes; marks run a full compilation and commit the base
// table. Apply must be called from a single goroutine in sequence order —
// exactly the contract replog.Consumer provides.
func (r *Replica) Apply(e *replog.Entry) error {
	rs := r.Ctrl.RouteServer()
	switch e.Kind {
	case replog.KindUpdate:
		routes := routeserver.RoutesFromUpdate(e.Update, e.PeerAS, e.PeerID)
		touched, err := rs.ApplyUpdateTouched(routeserver.ID(e.From), e.Update.Withdrawn, routes)
		if err != nil {
			return fmt.Errorf("core: applying log seq %d: %w", e.Seq, err)
		}
		if err := r.fastReact(touched); err != nil {
			return err
		}
	case replog.KindFlush:
		if err := r.fastReact(rs.FlushParticipant(routeserver.ID(e.From))); err != nil {
			return err
		}
	case replog.KindMark:
		res, err := r.Ctrl.Compile()
		if err != nil {
			return fmt.Errorf("core: compiling at log seq %d: %w", e.Seq, err)
		}
		if err := r.Switches.SetBase(res); err != nil {
			r.logf("core: pushing base at seq %d: %v", e.Seq, err)
		}
	default:
		return fmt.Errorf("core: unknown log entry kind %d at seq %d", e.Kind, e.Seq)
	}
	r.applied.Store(e.Seq)
	return nil
}

// fastReact runs the quick stage for the touched prefixes and pushes the
// resulting rules. Push failures are logged, not fatal: a dead switch
// channel reconciles on reattach.
func (r *Replica) fastReact(prefixes []netip.Prefix) error {
	if len(prefixes) == 0 {
		return nil
	}
	fast, err := r.Ctrl.FastReact(prefixes)
	if err != nil {
		return fmt.Errorf("core: fast path: %w", err)
	}
	if err := r.Switches.PushFastAll(fast); err != nil {
		r.logf("core: pushing fast rules: %v", err)
	}
	return nil
}

func (r *Replica) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// EnableTelemetry registers the replica's failover metrics with reg. A nil
// registry is a no-op.
func (r *Replica) EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("sdx_core_promotions_total",
		"Standby-to-active promotions on this replica.",
		func() float64 { return float64(r.mPromotions.Value()) })
	reg.GaugeFunc("sdx_core_replica_applied_seq",
		"Last replicated-log sequence number applied by this replica.",
		func() float64 { return float64(r.Applied()) })
	reg.GaugeFunc("sdx_core_replica_active",
		"1 when this replica has been promoted to active.",
		func() float64 {
			if r.Promoted() {
				return 1
			}
			return 0
		})
}
