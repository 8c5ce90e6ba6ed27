package core

import (
	"fmt"
	"net/netip"
	"time"

	"sdx/internal/netutil"
	"sdx/internal/policy"
)

// CompileStats extends the policy compiler's operation counts with the
// SDX-level metrics the paper's evaluation reports.
type CompileStats struct {
	policy.CompileStats
	// PrefixGroups is the number of forwarding equivalence classes
	// (Figure 6's y axis).
	PrefixGroups int
	// FlowRules is the number of installable (non-drop) rules (Figure 7).
	FlowRules int
	// Participants is the number of registered participants.
	Participants int
	// VNHTime and PolicyTime split the compilation wall-clock between
	// equivalence-class computation and policy composition (Figure 8).
	VNHTime    time.Duration
	PolicyTime time.Duration
	// Incremental reports whether the equivalence-class pass reused the
	// cached MDS state — re-signing only route-server-journaled prefixes —
	// rather than rebuilding every signature from scratch.
	Incremental bool
	// ResignedPrefixes is how many prefixes that pass re-signed (the whole
	// universe on a full rebuild).
	ResignedPrefixes int
}

// CompileResult is one full compilation of the exchange.
type CompileResult struct {
	// Classifier is the composed global policy in the virtual location
	// space (useful for inspection and semantic tests).
	Classifier policy.Classifier
	// Rules is the flattened, installable rule list: matches on physical
	// ingress ports, outputs on physical ports, highest priority first.
	Rules []policy.Rule
	// FECs is the equivalence-class table this compilation produced.
	FECs  []FEC
	Stats CompileStats
}

// Compile runs the full §4.1 pipeline: compute equivalence classes, rewrite
// each participant's policies (isolation, BGP consistency, tag matching),
// attach default forwarding, compose globally, and flatten to installable
// rules. On success it replaces the controller's FEC table, so route-server
// re-advertisements pick up the new virtual next hops.
//
// Compile snapshots its inputs under a brief read lock, computes without
// holding any controller lock, and commits the new equivalence classes
// under the write lock, so concurrent fast-path reactions and readers are
// never blocked behind a full compilation. Overlapping Compile calls are
// serialized by compileMu so a slower, staler compilation can never commit
// over a fresher one.
func (c *Controller) Compile() (*CompileResult, error) {
	waitStart := time.Now()
	c.compileMu.Lock()
	defer c.compileMu.Unlock()
	wait := time.Since(waitStart)
	start := time.Now()
	snap := c.snapshot()
	res, fecs, fresh, err := snap.run()
	if err != nil {
		// Nothing was committed; return the VNHs this attempt minted.
		for _, a := range fresh {
			c.pool.Release(a)
		}
		c.metrics.compileFailed()
		return nil, err
	}
	if snap.opts.VNHEncoding {
		c.commit(fecs)
	}
	c.metrics.compileDone(res, wait, time.Since(start))
	return res, nil
}

// run executes the compilation pipeline against the snapshot. It returns
// the result, the new class list to commit, and the VNHs freshly allocated
// for classes that could not reuse an existing tag (so the caller can
// release them if the compilation is abandoned).
func (p *pipeline) run() (*CompileResult, []*FEC, []netip.Addr, error) {
	res := &CompileResult{}
	res.Stats.Participants = len(p.parts)

	vnhStart := time.Now()
	if p.mds == nil {
		// Pipelines built outside a Controller (tests) get a throwaway
		// state; the first refresh is then simply a full pass.
		p.mds = newFECState()
	}
	sets, full, resigned := p.mds.refresh(p)
	res.Stats.Incremental = !full
	res.Stats.ResignedPrefixes = resigned
	var fecs []*FEC
	var fresh []netip.Addr
	if p.opts.VNHEncoding {
		var err error
		fecs, fresh, err = p.computeFECs()
		if err != nil {
			return nil, nil, fresh, err
		}
	}
	res.Stats.VNHTime = time.Since(vnhStart)
	res.Stats.PrefixGroups = len(fecs)

	polStart := time.Now()
	global, err := p.buildGlobalPolicy(sets, fecs, p.routerMACDefaults())
	if err != nil {
		return nil, nil, fresh, err
	}
	classifier, stats := policy.CompileWithOptions(global, p.opts.Compile)
	res.Stats.CompileStats = stats
	res.Classifier = classifier

	rules, err := p.flatten(classifier)
	if err != nil {
		return nil, nil, fresh, err
	}
	// Multicast-group replication rules go first: they must outrank the
	// unicast base rules for the group prefix. The fast-path band installs
	// above the whole base table, so tagged unicast reactions still win —
	// group traffic never carries a VMAC tag, so the bands never collide.
	groupRules, err := p.buildGroupRules()
	if err != nil {
		return nil, nil, fresh, err
	}
	res.Rules = append(groupRules, rules...)
	res.Stats.PolicyTime = time.Since(polStart)
	res.Stats.FlowRules = len(rules)
	for _, f := range fecs {
		res.FECs = append(res.FECs, *f)
	}
	return res, fecs, fresh, nil
}

// buildGlobalPolicy assembles SDX = (Σ outbound policies, else shared
// default forwarding) >> (Σ inbound policies, else shared default delivery,
// plus egress passthrough). Two §4.3.1 reductions are structural here:
// outbound policies match physical ingress ports and so can never fire in
// the second stage (and vice versa), and default forwarding is SHARED —
// one tag rule serves every ingress port, with per-port overrides only
// where a participant's own default next hop differs (it is the best
// advertiser itself). Sharing is what keeps the rule count near the number
// of prefix groups rather than groups × participants (Figure 7).
//
// Both compiler stages assemble here: the background stage over the refreshed
// reach sets, every class and routerMACDefaults(); the quick stage over
// singleton reach sets, its one fresh class and no untagged defaults.
func (p *pipeline) buildGlobalPolicy(sets []reachSet, fecs []*FEC, untagged []policy.Policy) (policy.Policy, error) {
	// One BGP filter per next hop, shared across every policy that forwards
	// there: the reused subtree is what the policy compiler's memo table
	// (§4.3.1 "many policy idioms appear more than once") capitalizes on.
	// Per-pair export policies make reach sets receiver-specific, which
	// disables sharing.
	var filterCache map[ID]policy.Policy
	if !p.rs.HasExportPolicy() {
		filterCache = make(map[ID]policy.Policy)
		for _, rs := range sets {
			if rs.set == nil || rs.set.Len() == 0 {
				continue
			}
			if _, done := filterCache[rs.hop]; !done {
				filterCache[rs.hop] = p.reachFilter(p.vrfOf(rs.hop), rs.set, fecs)
			}
		}
	}

	var outbound, inbound []policy.Policy
	for _, part := range p.parts {
		if part.Outbound != nil && len(part.Ports) > 0 {
			rewritten, err := p.rewritePolicy(part.Outbound, part.ID, sets, fecs, filterCache)
			if err != nil {
				return nil, fmt.Errorf("core: outbound policy of %q: %w", part.ID, err)
			}
			outbound = append(outbound, policy.SeqOf(ingressFilter(part), rewritten))
		}
		if part.Inbound != nil {
			rewritten, err := p.rewritePolicy(part.Inbound, part.ID, nil, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("core: inbound policy of %q: %w", part.ID, err)
			}
			atVirtual := policy.MatchPolicy(policy.MatchAll.Port(p.vports[part.ID]))
			inbound = append(inbound, policy.SeqOf(atVirtual, rewritten))
		}
	}

	pass1 := policy.WithDefault(policy.Par(outbound...), p.sharedDefaultOut(fecs, untagged))
	pass2Parts := []policy.Policy{
		policy.WithDefault(policy.Par(inbound...), p.sharedDefaultIn()),
	}
	for _, n := range p.sortedPortNumbers() {
		pass2Parts = append(pass2Parts, policy.MatchPolicy(policy.MatchAll.Port(EgressPort(n))))
	}
	return policy.SeqOf(pass1, policy.Par(pass2Parts...)), nil
}

// sharedDefaultOut is the first-stage default: traffic follows its tag to
// the best advertiser's virtual switch. The only port-dependent piece is the
// override for the best advertiser's OWN traffic, whose default route is the
// second-best advertiser. untagged, appended to the base after them, is the
// caller's: only a view holding every class carries traffic without a class
// tag. The quick stage keeps nothing but the rules matching its one tag, so
// a branch per router MAC there would be compiled only to be thrown away.
func (p *pipeline) sharedDefaultOut(fecs []*FEC, untagged []policy.Policy) policy.Policy {
	var base, overrides []policy.Policy
	for _, f := range fecs {
		if f.First == "" {
			continue
		}
		base = append(base, policy.SeqOf(
			policy.MatchPolicy(policy.MatchAll.DstMAC(f.VMAC)),
			policy.Fwd(p.vports[f.First]),
		))
		if f.Second == "" {
			continue
		}
		firstP := p.byID[f.First]
		if firstP == nil || len(firstP.Ports) == 0 {
			continue
		}
		overrides = append(overrides, policy.SeqOf(
			ingressFilter(firstP),
			policy.MatchPolicy(policy.MatchAll.DstMAC(f.VMAC)),
			policy.Fwd(p.vports[f.Second]),
		))
	}
	base = append(base, untagged...)
	return policy.WithDefault(policy.Par(overrides...), policy.Par(base...))
}

// routerMACDefaults are the first-stage defaults for untagged traffic: a
// frame addressed to a router's real MAC goes to that router's participant.
func (p *pipeline) routerMACDefaults() []policy.Policy {
	var out []policy.Policy
	for _, other := range p.parts {
		for _, port := range other.Ports {
			out = append(out, policy.SeqOf(
				policy.MatchPolicy(policy.MatchAll.DstMAC(port.MAC)),
				policy.Fwd(p.vports[other.ID]),
			))
		}
	}
	return out
}

// sharedDefaultIn is the second-stage default: traffic at a participant's
// virtual switch is delivered on its first physical port with the router's
// MAC restored (the paper's destination-MAC rewrite).
func (p *pipeline) sharedDefaultIn() policy.Policy {
	var branches []policy.Policy
	for _, part := range p.parts {
		if len(part.Ports) == 0 {
			continue
		}
		home := part.Ports[0]
		branches = append(branches, policy.SeqOf(
			policy.MatchPolicy(policy.MatchAll.Port(p.vports[part.ID])),
			policy.ModPolicy(policy.Identity.SetDstMAC(home.MAC).SetPort(EgressPort(home.Number))),
		))
	}
	return policy.Par(branches...)
}

// rewritePolicy applies the §4.1 syntactic transformations to one
// participant policy: forwards to another participant's virtual switch are
// restricted to the BGP routes that participant exported (as tag matches
// under VNH encoding, as raw prefix filters otherwise), and forwards to an
// egress location gain the recipient router's MAC rewrite.
func (p *pipeline) rewritePolicy(pol policy.Policy, owner ID, sets []reachSet, fecs []*FEC, filterCache map[ID]policy.Policy) (policy.Policy, error) {
	switch v := pol.(type) {
	case *policy.Test, policy.Drop, policy.Pass:
		return pol, nil
	case *policy.Mod:
		return p.rewriteMod(v, owner, sets, fecs, filterCache)
	case *policy.Union:
		out := make([]policy.Policy, len(v.Children))
		for i, ch := range v.Children {
			r, err := p.rewritePolicy(ch, owner, sets, fecs, filterCache)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return policy.Par(out...), nil
	case *policy.Seq:
		out := make([]policy.Policy, len(v.Children))
		for i, ch := range v.Children {
			r, err := p.rewritePolicy(ch, owner, sets, fecs, filterCache)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return policy.SeqOf(out...), nil
	case *policy.If:
		then, err := p.rewritePolicy(v.Then, owner, sets, fecs, filterCache)
		if err != nil {
			return nil, err
		}
		els, err := p.rewritePolicy(v.Else, owner, sets, fecs, filterCache)
		if err != nil {
			return nil, err
		}
		return policy.IfThenElse(v.Pred, then, els), nil
	case *policy.Fallback:
		prim, err := p.rewritePolicy(v.Primary, owner, sets, fecs, filterCache)
		if err != nil {
			return nil, err
		}
		def, err := p.rewritePolicy(v.Default, owner, sets, fecs, filterCache)
		if err != nil {
			return nil, err
		}
		return policy.WithDefault(prim, def), nil
	default:
		return nil, fmt.Errorf("unsupported policy node %T", pol)
	}
}

func (p *pipeline) rewriteMod(m *policy.Mod, owner ID, sets []reachSet, fecs []*FEC, filterCache map[ID]policy.Policy) (policy.Policy, error) {
	port, ok := m.Mods.GetPort()
	if !ok {
		return m, nil // pure header rewrite: no location change to police
	}
	if phys, isEgress := IsEgress(port); isEgress {
		// Direct delivery (inbound fwd(B1), middlebox ports): ensure the
		// frame carries the attached router's MAC.
		if _, has := m.Mods.GetDstMAC(); has {
			return m, nil
		}
		mac, known := p.portMACs[phys]
		if !known {
			return nil, fmt.Errorf("egress to unknown physical port %d", phys)
		}
		return policy.ModPolicy(m.Mods.SetDstMAC(mac)), nil
	}
	if !IsVirtual(port) {
		return nil, fmt.Errorf("policy forwards to raw physical port %d; use EgressPort or FwdTo", port)
	}
	// fwd(B): restrict to the prefixes B exported to the policy's owner.
	hop, ok := p.byVPort[port]
	if !ok {
		return nil, fmt.Errorf("forward to unknown virtual port %d", port)
	}
	if sets == nil {
		// Inbound policies are not BGP-restricted (§4.1 restricts only
		// outbound actions).
		return m, nil
	}
	var reach *netutil.PrefixSet
	for _, rs := range sets {
		if rs.participant == owner && rs.hop == hop {
			reach = rs.set
			break
		}
	}
	if reach == nil || reach.Len() == 0 {
		return policy.Drop{}, nil // hop exported nothing to owner
	}
	if filterCache != nil {
		// The cache was populated up front from the reach sets, so this
		// lookup cannot miss; it is read-only here, keeping the parallel
		// rewrites synchronization-free.
		if cached, ok := filterCache[hop]; ok && cached != nil {
			return policy.SeqOf(cached, m), nil
		}
	}
	return policy.SeqOf(p.reachFilter(p.vrfOf(owner), reach, fecs), m), nil
}

// reachFilter builds the predicate-policy admitting exactly the traffic
// destined to the given prefix set: tag matches on the covering equivalence
// classes under VNH encoding, raw destination-prefix matches otherwise.
// vrf is the domain the reach set was computed in — classes from other
// domains are skipped, since their bare prefixes may coincide.
func (p *pipeline) reachFilter(vrf VRF, reach *netutil.PrefixSet, fecs []*FEC) policy.Policy {
	var tests []policy.Policy
	if p.opts.VNHEncoding {
		for _, f := range fecs {
			if f.VRF != vrf {
				continue
			}
			// Classes are built from these very sets, so each class is
			// entirely inside or outside reach: probing one member decides.
			if len(f.Prefixes) > 0 && reach.Contains(f.Prefixes[0]) {
				tests = append(tests, policy.MatchPolicy(policy.MatchAll.DstMAC(f.VMAC)))
			}
		}
	} else {
		for _, pfx := range reach.Prefixes() {
			tests = append(tests, policy.MatchPolicy(policy.MatchAll.DstIP(pfx)))
		}
	}
	return policy.Par(tests...)
}

// flatten converts the composed classifier to installable rules: only
// non-drop rules reachable from physical ingress survive, and egress
// locations in output actions map back to real port numbers.
func (p *pipeline) flatten(cl policy.Classifier) ([]policy.Rule, error) {
	var out []policy.Rule
	for _, r := range cl.Rules {
		if r.IsDrop() {
			continue
		}
		if port, constrained := r.Match.GetPort(); constrained && !IsPhysical(port) {
			continue // interior rule (virtual/egress location): unreachable from the wire
		}
		actions := make([]policy.Mods, 0, len(r.Actions))
		for _, a := range r.Actions {
			port, ok := a.GetPort()
			if !ok {
				continue // no output: contributes nothing
			}
			phys, isEgress := IsEgress(port)
			if !isEgress {
				return nil, fmt.Errorf("core: rule %v leaves traffic at interior location %d", r, port)
			}
			actions = append(actions, a.SetPort(phys))
		}
		if len(actions) == 0 {
			continue
		}
		out = append(out, policy.Rule{Match: r.Match, Actions: actions})
	}
	return out, nil
}
