package core

import (
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"time"

	"sdx/internal/netutil"
	"sdx/internal/policy"
	"sdx/internal/telemetry"
)

// fastPathState tracks what the quick reaction stage has installed since
// the last full compilation, so the background pass can account for (and
// eventually retire) it.
type fastPathState struct {
	mu    sync.Mutex
	rules []policy.Rule
	fecs  []*FEC
}

// fastTemplate is one memoized quick-stage compilation: the rules produced
// for a prefix whose reachability signature (who advertises it, who the
// best and backup next hops are) matched the key, together with the VMAC
// they were compiled against. Under BGP churn the same few signatures recur
// for thousands of prefixes, so reuse turns the per-prefix policy
// compilation into a rule clone with the fresh FEC's tag substituted.
type fastTemplate struct {
	vmac  netutil.MAC
	rules []policy.Rule
}

// fastPathCache memoizes quick-stage compilations by reachability
// signature. Every input the compiled slice depends on beyond the signature
// — participant policies, port maps, virtual port numbers — is controller
// configuration, and any mutation of those invalidates the whole cache.
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
// that feeds the compiled slices changes.
func (fc *fastPathCache) invalidate() {
	fc.mu.Lock()
	fc.templates = nil
	fc.mu.Unlock()
}

func newFastPathState() *fastPathState { return &fastPathState{} }

func (f *fastPathState) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
	f.fecs = nil
}

func (f *fastPathState) record(rules []policy.Rule, fecs []*FEC) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, rules...)
	f.fecs = append(f.fecs, fecs...)
}

// FastPathRules returns the rules the quick stage has added since the last
// full compilation — the paper's Figure 9 "additional forwarding rules".
func (c *Controller) FastPathRules() []policy.Rule {
	c.fastPath.mu.Lock()
	defer c.fastPath.mu.Unlock()
	return append([]policy.Rule(nil), c.fastPath.rules...)
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

// FastReact is the quick reaction stage of §4.3.2: for every touched prefix
// (what the route server's apply path returns) it mints a fresh virtual next
// hop (bypassing minimum-disjoint-subset optimization entirely) and
// recompiles only the policy slices that can carry that prefix's traffic.
// The returned rules go in at higher priority than the base table;
// Reoptimize later recomputes the optimal tables in the background. The
// prefix list must already be deduplicated.
func (c *Controller) FastReact(affected []netip.Prefix) (*FastPathResult, error) {
	start := time.Now()
	// The read lock is held for the whole reaction: it keeps the quick
	// stage's allocate-compile-record sequence atomic with respect to a
	// background compilation's commit, which takes the write lock. It does
	// NOT serialize against the compile's compute phase, which runs
	// lock-free on its own snapshot.
	c.mu.RLock()
	defer c.mu.RUnlock()
	snap := c.snapshotLocked()

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

	// React to the batch's prefixes concurrently (large withdrawal bursts
	// touch hundreds), writing into index-addressed slots so the merged
	// output order stays the arrival order regardless of scheduling.
	type slot struct {
		fec   *FEC
		rules []policy.Rule
		err   error
	}
	slots := make([]slot, len(work))
	fanOut(snap.workers, len(work), func(i int) {
		fec, rules, err := snap.fastPathForPrefix(work[i].vrf, work[i].pfx, &c.fastCache)
		slots[i] = slot{fec: fec, rules: rules, err: err}
	})

	res := &FastPathResult{}
	var newFecs []*FEC
	for _, s := range slots {
		if s.err != nil {
			return nil, s.err
		}
		if s.fec != nil {
			newFecs = append(newFecs, s.fec)
			res.NewFECs = append(res.NewFECs, *s.fec)
		}
		res.Rules = append(res.Rules, s.rules...)
	}
	c.fastPath.record(res.Rules, newFecs)
	res.Elapsed = time.Since(start)
	c.metrics.fastpathDone(res)
	c.tracer.Emit("fastpath",
		telemetry.Dur("dur", res.Elapsed),
		telemetry.Int("prefixes", len(affected)),
		telemetry.Int("rules", len(res.Rules)),
		telemetry.Int("fecs", len(res.NewFECs)))
	return res, nil
}

// fastPathForPrefix assigns prefix a fresh singleton FEC in one isolation
// domain and produces the slice of the global policy that concerns it —
// compiled once per reachability signature and cloned from the template
// cache thereafter.
func (p *pipeline) fastPathForPrefix(vrf VRF, prefix netip.Prefix, cache *fastPathCache) (*FEC, []policy.Rule, error) {
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
	id, err := p.fecs.allocID()
	if err != nil {
		p.pool.Release(vnh)
		return nil, nil, fmt.Errorf("core: fast path: %w", err)
	}
	fec := &FEC{
		ID:       id,
		VNH:      vnh,
		VMAC:     netutil.VMAC(id),
		Prefixes: []netip.Prefix{prefix},
		VRF:      vrf,
		First:    first,
		Second:   second,
	}
	p.fecs.add(fec)

	// The compiled slice depends on the prefix only through its
	// reachability signature: which participants advertise it (that is
	// what rewriteForPrefix consults) and the best/backup next hops the
	// default rules forward to. Everything else — policies, ports, virtual
	// port numbers — is fixed controller configuration whose mutation
	// invalidates the cache.
	key := p.signatureKey(vrf, prefix, first, second)
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

	mini, err := p.buildPrefixSlicePolicy(prefix, fec)
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

// signatureKey renders the reachability signature the quick-stage template
// cache is keyed by: the domain, the same-domain participants currently
// advertising the prefix (in registration order, so the rendering is
// canonical), and the best and backup next-hop participants. Advertisers in
// other domains are invisible to this slice, so they stay out of the key.
func (p *pipeline) signatureKey(vrf VRF, prefix netip.Prefix, first, second ID) string {
	var b strings.Builder
	for _, part := range p.parts {
		if p.vrfOf(part.ID) != vrf {
			continue
		}
		if _, ok := p.rs.AdvertisedRoute(part.ID, prefix); ok {
			b.WriteString(string(part.ID))
			b.WriteByte(0)
		}
	}
	b.WriteByte(1)
	b.WriteString(string(first))
	b.WriteByte(0)
	b.WriteString(string(second))
	b.WriteByte(0)
	b.WriteString(string(vrf))
	return b.String()
}

// buildPrefixSlicePolicy assembles the two-stage policy restricted to
// traffic tagged with the prefix's fresh VMAC: each participant's outbound
// policy with forwards filtered to "does that hop export this prefix to
// me", plus single-class defaults, composed with the normal inbound stage.
func (p *pipeline) buildPrefixSlicePolicy(prefix netip.Prefix, fec *FEC) (policy.Policy, error) {
	tag := policy.MatchPolicy(policy.MatchAll.DstMAC(fec.VMAC))
	var pols1, pols2 []policy.Policy
	for _, part := range p.parts {
		if p.vrfOf(part.ID) != fec.VRF {
			continue // other domains never see this tag
		}
		if part.Outbound != nil && len(part.Ports) > 0 {
			rewritten, err := p.rewriteForPrefix(part.Outbound, part.ID, prefix, tag)
			if err != nil {
				return nil, fmt.Errorf("core: fast path policy of %q: %w", part.ID, err)
			}
			pols1 = append(pols1, policy.SeqOf(ingressFilter(part), rewritten))
		}
		if part.Inbound != nil {
			rewritten, err := p.rewritePolicy(part.Inbound, part.ID, nil, nil, nil)
			if err != nil {
				return nil, err
			}
			atVirtual := policy.MatchPolicy(policy.MatchAll.Port(p.vports[part.ID]))
			pols2 = append(pols2, policy.SeqOf(atVirtual, rewritten))
		}
	}
	// Single-class shared default: the tag's base rule plus the best
	// advertiser's own-traffic override.
	var overrides, base []policy.Policy
	base = append(base, policy.SeqOf(tag, policy.Fwd(p.vports[fec.First])))
	if fec.Second != "" {
		if firstP := p.byID[fec.First]; firstP != nil && len(firstP.Ports) > 0 {
			overrides = append(overrides, policy.SeqOf(
				ingressFilter(firstP), tag, policy.Fwd(p.vports[fec.Second])))
		}
	}
	defOut := policy.WithDefault(policy.Par(overrides...), policy.Par(base...))

	pass1 := policy.WithDefault(policy.Par(pols1...), defOut)
	pass2Parts := []policy.Policy{
		policy.WithDefault(policy.Par(pols2...), p.sharedDefaultIn()),
	}
	for _, n := range p.sortedPortNumbers() {
		pass2Parts = append(pass2Parts, policy.MatchPolicy(policy.MatchAll.Port(EgressPort(n))))
	}
	return policy.SeqOf(pass1, policy.Par(pass2Parts...)), nil
}

// rewriteForPrefix is rewritePolicy specialized to a single prefix: fwd(B)
// becomes tag-match >> fwd(B) when B currently exports the prefix to the
// owner, and drop otherwise.
func (p *pipeline) rewriteForPrefix(pol policy.Policy, owner ID, prefix netip.Prefix, tag policy.Policy) (policy.Policy, error) {
	switch v := pol.(type) {
	case *policy.Test, policy.Drop, policy.Pass:
		return pol, nil
	case *policy.Mod:
		port, ok := v.Mods.GetPort()
		if !ok {
			return pol, nil
		}
		if phys, isEgress := IsEgress(port); isEgress {
			if _, has := v.Mods.GetDstMAC(); has {
				return pol, nil
			}
			mac, known := p.portMACs[phys]
			if !known {
				return nil, fmt.Errorf("egress to unknown physical port %d", phys)
			}
			return policy.ModPolicy(v.Mods.SetDstMAC(mac)), nil
		}
		var hop ID
		for id, vp := range p.vports {
			if vp == port {
				hop = id
				break
			}
		}
		if hop == "" {
			return nil, fmt.Errorf("forward to unknown virtual port %d", port)
		}
		if _, exports := p.rs.AdvertisedRoute(hop, prefix); !exports || hop == owner || !p.sameVRF(hop, owner) {
			return policy.Drop{}, nil
		}
		return policy.SeqOf(tag, v), nil
	case *policy.Union:
		out := make([]policy.Policy, len(v.Children))
		for i, ch := range v.Children {
			r, err := p.rewriteForPrefix(ch, owner, prefix, tag)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return policy.Par(out...), nil
	case *policy.Seq:
		out := make([]policy.Policy, len(v.Children))
		for i, ch := range v.Children {
			r, err := p.rewriteForPrefix(ch, owner, prefix, tag)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return policy.SeqOf(out...), nil
	case *policy.If:
		then, err := p.rewriteForPrefix(v.Then, owner, prefix, tag)
		if err != nil {
			return nil, err
		}
		els, err := p.rewriteForPrefix(v.Else, owner, prefix, tag)
		if err != nil {
			return nil, err
		}
		return policy.IfThenElse(v.Pred, then, els), nil
	case *policy.Fallback:
		prim, err := p.rewriteForPrefix(v.Primary, owner, prefix, tag)
		if err != nil {
			return nil, err
		}
		def, err := p.rewriteForPrefix(v.Default, owner, prefix, tag)
		if err != nil {
			return nil, err
		}
		return policy.WithDefault(prim, def), nil
	default:
		return nil, fmt.Errorf("unsupported policy node %T", pol)
	}
}

// Reoptimize is the background stage: a full recompilation that rebuilds
// the minimal equivalence classes and tables, clearing the fast path's
// accumulated state. Callers swap the result into the data plane and drop
// the fast-path priority band.
func (c *Controller) Reoptimize() (*CompileResult, error) {
	return c.Compile()
}
