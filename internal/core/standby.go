package core

import (
	"net/netip"
	"sync/atomic"
	"time"

	"sdx/internal/routeserver"
	"sdx/internal/telemetry"
)

// Replica is one controller in a replicated deployment (or a reference
// replica in a test): a Controller plus a SwitchServer whose two-stage
// reaction is driven by a routeserver.Frontend — sessions on the leader, the
// leader's log on a follower, the same transition function on both. Because
// the decision process and the policy compiler are deterministic, every
// replica that applies the same entry sequence holds byte-identical desired
// state — including the history-dependent VNH/VMAC assignment, since
// compiles happen at the sequence's KindMark positions rather than on local
// timers.
//
// The active replica has switches attached to its SwitchServer; a standby
// applies the same entries with no switches (every push is a no-op against
// an empty switch set). Promotion is therefore not a state transfer: the
// standby already holds the desired state, and the PR 4 reconciliation in
// SwitchServer.Serve replays it into each switch that re-homes to the new
// primary — flow-stats dump, replay of desired adds, strict delete of
// stale entries, barrier. Make-before-break, no flow-table wipe.
type Replica struct {
	Ctrl     *Controller
	Switches *SwitchServer
	// Logf, when set, receives reaction/promotion diagnostics.
	Logf func(format string, args ...any)

	fe          *routeserver.Frontend
	promoted    atomic.Bool
	mPromotions telemetry.Counter
}

// NewReplica wraps an already-configured controller (participants and
// policies registered) and its switch server.
func NewReplica(ctrl *Controller, switches *SwitchServer) *Replica {
	return &Replica{Ctrl: ctrl, Switches: switches}
}

// Drive installs the two-stage reaction of §4.3.2 on fe, which must front
// the controller's own route server: update and flush entries run the quick
// stage for the touched prefixes, compile points run the full compilation
// and commit the base table, and advertised next hops are the controller's
// VNHs. Each compile point logs one summary line; quick-stage reactions log
// nothing (the sdx_core_fastpath_* metrics count them). Reaction errors are
// logged, not returned: a dead switch channel reconciles on reattach, and a
// follower that logs and continues is in the same state as the leader that
// did.
func (r *Replica) Drive(fe *routeserver.Frontend) {
	r.fe = fe
	fe.NextHop = r.Ctrl.NextHopFor
	fe.OnPrefixes = func(prefixes []netip.Prefix) {
		fast, err := r.Ctrl.FastReact(prefixes)
		if err != nil {
			r.logf("core: fast path: %v", err)
			return
		}
		if err := r.Switches.PushFastAll(fast); err != nil {
			r.logf("core: pushing fast rules: %v", err)
		}
	}
	fe.OnMark = func() {
		start := time.Now()
		res, err := r.Ctrl.Compile()
		if err != nil {
			r.logf("core: compiling: %v", err)
			return
		}
		r.logf("core: compile dur=%v rules=%d classifier=%d fecs=%d incremental=%t resigned=%d",
			time.Since(start).Round(time.Microsecond), res.Stats.FlowRules, len(res.Classifier.Rules),
			res.Stats.PrefixGroups, res.Stats.Incremental, res.Stats.ResignedPrefixes)
		if err := r.Switches.SetBase(res); err != nil {
			r.logf("core: pushing base: %v", err)
		}
	}
}

// Promoted reports whether Promote has been called.
func (r *Replica) Promoted() bool { return r.promoted.Load() }

// Promote marks the replica active. The desired state is already current
// (the entries were being applied all along), so promotion itself is only a
// role flip plus whatever listener the caller now opens; each switch that
// dials the new primary is reconciled by SwitchServer.Serve.
func (r *Replica) Promote() {
	if r.promoted.Swap(true) {
		return
	}
	r.mPromotions.Inc()
	r.logf("core: replica promoted at log seq %d", r.fe.Applied())
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
		"Sequence number of the last entry this replica's frontend applied.",
		func() float64 { return float64(r.fe.Applied()) })
	reg.GaugeFunc("sdx_core_replica_active",
		"1 when this replica has been promoted to active.",
		func() float64 {
			if r.Promoted() {
				return 1
			}
			return 0
		})
}
