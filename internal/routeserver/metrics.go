package routeserver

import "sdx/internal/telemetry"

// EnableTelemetry registers the route-server engine's metrics with reg. The
// engine counts into always-live intrusive counters; the registry only reads
// them at scrape time, so enabling telemetry does not touch the decision
// path. Call once per Server; a nil registry is a no-op.
func (s *Server) EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("sdx_routeserver_best_recomputations_total",
		"Decision-process runs that could not be served from the shard caches.",
		func() float64 { return float64(s.mBestRecomputations.Value()) })
	reg.CounterFunc("sdx_routeserver_best_cache_hits_total",
		"Best-route lookups served from the shard decision caches.",
		func() float64 { return float64(s.mBestCacheHits.Value()) })
	reg.CounterFunc("sdx_routeserver_best_changes_total",
		"Prefixes reported touched by applied updates: best-route decision changes, or every candidate change when an export policy or VRF makes the decision per-receiver.",
		func() float64 { return float64(s.mTouchedPrefixes.Value()) })
	reg.CounterFunc("sdx_routeserver_advertisements_total",
		"Routes advertised or loaded into the engine.",
		func() float64 { return float64(s.mAdvertisements.Value()) })
	reg.CounterFunc("sdx_routeserver_withdrawals_total",
		"Routes withdrawn from the engine.",
		func() float64 { return float64(s.mWithdrawals.Value()) })
	reg.CounterFunc("sdx_routeserver_peer_flushes_total",
		"Participants whose routes were flushed on session loss.",
		func() float64 { return float64(s.mPeerFlushes.Value()) })
	reg.GaugeFunc("sdx_routeserver_prefixes",
		"Prefixes with at least one candidate route.",
		func() float64 {
			n := 0
			for i := range s.shards {
				sh := &s.shards[i]
				sh.mu.RLock()
				n += len(sh.candidates)
				sh.mu.RUnlock()
			}
			return float64(n)
		})
	reg.GaugeFunc("sdx_routeserver_participants",
		"Registered participants.",
		func() float64 {
			s.partMu.RLock()
			defer s.partMu.RUnlock()
			return float64(len(s.participants))
		})
}

// EnableTelemetry registers the frontend's re-export metrics with reg: the
// BGP UPDATEs and withdrawals the route server sends back out to
// participants. A nil registry is a no-op.
func (f *Frontend) EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("sdx_routeserver_updates_out_total",
		"Best-route advertisements re-exported to participants.",
		func() float64 { return float64(f.mUpdatesOut.Value()) })
	reg.CounterFunc("sdx_routeserver_withdrawals_out_total",
		"Withdrawals re-exported to participants.",
		func() float64 { return float64(f.mWithdrawalsOut.Value()) })
	reg.CounterFunc("sdx_routeserver_messages_out_total",
		"Packed BGP UPDATE messages sent to participants.",
		func() float64 { return float64(f.mMessagesOut.Value()) })
	reg.CounterFunc("sdx_routeserver_rejected_updates_total",
		"Inbound UPDATEs the engine refused (e.g. unknown participant).",
		func() float64 { return float64(f.mRejectedUpdates.Value()) })
}
