package core

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"sdx/internal/netutil"
	"sdx/internal/policy"
	"sdx/internal/telemetry"
)

// fastTemplate is one memoized quick-stage compilation: the rules produced
// for a prefix whose MDS signature (renderSig: which policy reach sets hold
// it, who the best and backup next hops are, which domain) matched the key,
// together with the VMAC they were compiled against. Under BGP churn the
// same few signatures recur for thousands of prefixes, so reuse turns the
// per-prefix policy compilation into a rule clone with the fresh FEC's tag
// substituted.
type fastTemplate struct {
	vmac  netutil.MAC
	rules []policy.Rule
}

// fastPathCache memoizes quick-stage compilations by MDS signature. Every
// input the compiled rules depend on beyond the signature — participant
// policies, port maps, virtual port numbers — is controller configuration,
// and any mutation of those invalidates the whole cache.
type fastPathCache struct {
	mu        sync.Mutex
	templates map[string]*fastTemplate

	hits, misses telemetry.Counter
}

func (fc *fastPathCache) lookup(key string) (*fastTemplate, bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	t, ok := fc.templates[key]
	if ok {
		fc.hits.Inc()
	} else {
		fc.misses.Inc()
	}
	return t, ok
}

func (fc *fastPathCache) store(key string, t *fastTemplate) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.templates == nil {
		fc.templates = make(map[string]*fastTemplate)
	}
	fc.templates[key] = t
}

// invalidate drops every template. Called whenever controller configuration
// that feeds the compiled rules changes.
func (fc *fastPathCache) invalidate() {
	fc.mu.Lock()
	fc.templates = nil
	fc.mu.Unlock()
}

// FastPathResult is the outcome of one quick-stage reaction to a burst of
// touched prefixes.
type FastPathResult struct {
	// Rules are the additional forwarding rules to install above the base
	// table (highest priority first).
	Rules []policy.Rule
	// NewFECs are the fresh singleton equivalence classes, one per
	// affected prefix.
	NewFECs []FEC
	// Elapsed is the quick stage's computation time (Figure 10's metric).
	Elapsed time.Duration
}

// FastReact is the quick reaction stage of §4.3.2. For each touched prefix
// (what the route server's apply path returns) that still has a best route,
// it mints a fresh virtual next hop (bypassing minimum-disjoint-subset
// optimization entirely) and produces the rules for the parts of the policy
// that can carry that prefix's traffic: compiled on the first prefix with a
// given MDS signature, cloned from the stored template with the new tag on
// every later one. A withdrawn prefix mints nothing; its traffic falls back
// to the base table. The returned rules go in at higher priority than the
// base table; Reoptimize later recomputes the optimal tables in the
// background. The prefix list must already be deduplicated.
func (c *Controller) FastReact(affected []netip.Prefix) (*FastPathResult, error) {
	start := time.Now()
	// The read lock is held for the whole reaction: it keeps the quick
	// stage's allocate-and-compile sequence atomic with respect to a
	// background compilation's commit, which takes the write lock. It does
	// NOT serialize against the compile's compute phase, which runs
	// lock-free on its own snapshot.
	c.mu.RLock()
	defer c.mu.RUnlock()
	snap := c.snapshotLocked()
	keys := snap.reachSetKeys()

	// With tenancy active the same bare prefix may need a reaction in
	// several domains; the work list is the cross product, which collapses
	// back to the plain prefix list on single-tenant exchanges.
	domains := snap.vrfDomains()
	type workItem struct {
		vrf VRF
		pfx netip.Prefix
	}
	work := make([]workItem, 0, len(affected)*len(domains))
	for _, pfx := range affected {
		for _, vrf := range domains {
			work = append(work, workItem{vrf: vrf, pfx: pfx})
		}
	}

	// React to the batch's prefixes in arrival order.
	res := &FastPathResult{}
	for _, w := range work {
		fec, rules, err := snap.fastPathForPrefix(w.vrf, w.pfx, keys, &c.fastCache)
		if err != nil {
			return nil, err
		}
		if fec != nil {
			res.NewFECs = append(res.NewFECs, *fec)
		}
		res.Rules = append(res.Rules, rules...)
	}
	res.Elapsed = time.Since(start)
	c.metrics.fastpathDone(res)
	return res, nil
}

// fastPathForPrefix assigns prefix a fresh singleton FEC in one isolation
// domain and runs the background stage's policy assembly over that one
// class: reach sets narrowed to the prefix, compiled once per MDS signature
// and cloned from the template cache thereafter. keys is reachSetKeys().
func (p *pipeline) fastPathForPrefix(vrf VRF, prefix netip.Prefix, keys []reachKey, cache *fastPathCache) (*FEC, []policy.Rule, error) {
	prefix = prefix.Masked()
	first, second := p.rs.BestTwoIn(vrf, prefix)
	if first == "" {
		// The prefix is gone: no new tag; traffic falls back to the base
		// table, whose route-server withdrawals already stopped attracting
		// it. (Stale base rules are retired by the background pass.)
		return nil, nil, nil
	}
	vnh, err := p.pool.Alloc()
	if err != nil {
		return nil, nil, fmt.Errorf("core: fast path VNH: %w", err)
	}
	fec := &FEC{
		VNH:      vnh,
		VMAC:     vmacOf(p.pool, vnh),
		Prefixes: []netip.Prefix{prefix},
		VRF:      vrf,
		First:    first,
		Second:   second,
	}
	p.fecs.add(fec)

	// The prefix's view of the reach sets: hop's set holds it exactly when
	// hop exports it to the participant, guarded by the key's domain as
	// fecState.sigKey guards its bits. The same bits are the memo key — the
	// compiled rules depend on the prefix only through its signature;
	// everything else is controller configuration whose mutation invalidates
	// the cache.
	only := netutil.NewPrefixSet()
	only.Add(prefix)
	sets := make([]reachSet, len(keys))
	for i, k := range keys {
		sets[i] = reachSet{participant: k.participant, hop: k.hop}
		if p.vrfOf(k.hop) == vrf && p.rs.Exports(k.hop, k.participant, prefix) {
			sets[i].set = only
		}
	}
	member := func(i int) bool { return sets[i].set != nil }
	key := renderSig(len(sets), member, vrf, first, second)
	if tpl, ok := cache.lookup(key); ok {
		rules := make([]policy.Rule, len(tpl.rules))
		for i, r := range tpl.rules {
			if mac, ok := r.Match.GetDstMAC(); ok && mac == tpl.vmac {
				r.Match = r.Match.DstMAC(fec.VMAC)
			}
			rules[i] = r
		}
		return fec, rules, nil
	}

	// No untagged defaults: one class has no untagged traffic.
	mini, err := p.buildGlobalPolicy(sets, []*FEC{fec}, nil)
	if err != nil {
		return nil, nil, err
	}
	classifier, _ := policy.CompileWithOptions(mini, p.opts.Compile)
	flat, err := p.flatten(classifier)
	if err != nil {
		return nil, nil, err
	}
	// Keep only the rules that concern the new tag; the remainder merely
	// restates base-table behaviour.
	var rules []policy.Rule
	for _, r := range flat {
		if mac, ok := r.Match.GetDstMAC(); ok && mac == fec.VMAC {
			rules = append(rules, r)
		}
	}
	cache.store(key, &fastTemplate{vmac: fec.VMAC, rules: rules})
	return fec, rules, nil
}

// Reoptimize is the background stage: a full recompilation that rebuilds
// the minimal equivalence classes and tables. Callers swap the result into
// the data plane and drop the fast-path priority band.
func (c *Controller) Reoptimize() (*CompileResult, error) {
	return c.Compile()
}
