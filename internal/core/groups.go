package core

import (
	"fmt"
	"net/netip"
	"sort"

	"sdx/internal/policy"
)

// Group is a named multicast group: traffic entering the fabric from any
// member, addressed to Prefix, is replicated to every other member's ports.
// The sender's own ingress port is excluded at compile time — each member
// ingress gets its own replication rule whose port set omits it — so the
// data-plane group action stays a pure fan-out (render once, emit in
// ascending port order) with no runtime special cases.
//
// Group rules are prepended to the compiled base table, so they outrank
// unicast base rules for the group prefix; the fast-path priority band
// (VMAC-tagged unicast reactions) still sits above them, and group traffic
// never carries a tag, so the two coexist without shadowing each other.
type Group struct {
	Name    string
	Prefix  netip.Prefix
	Members []ID
}

// AddGroup registers a multicast group. Members must already be registered
// and have at least one physical port; the member list is deduplicated and
// kept in sorted order so compilation is deterministic.
func (c *Controller) AddGroup(g Group) error {
	if g.Name == "" {
		return fmt.Errorf("core: multicast group needs a name")
	}
	if !g.Prefix.IsValid() || !g.Prefix.Addr().Is4() {
		return fmt.Errorf("core: multicast group %q needs a valid IPv4 prefix", g.Name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.groups[g.Name]; dup {
		return fmt.Errorf("core: multicast group %q already registered", g.Name)
	}
	members := append([]ID(nil), g.Members...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	uniq := members[:0]
	for i, id := range members {
		if i > 0 && id == members[i-1] {
			continue
		}
		uniq = append(uniq, id)
	}
	if len(uniq) < 2 {
		return fmt.Errorf("core: multicast group %q needs at least two distinct members", g.Name)
	}
	for _, id := range uniq {
		p, ok := c.participants[id]
		if !ok {
			return fmt.Errorf("core: multicast group %q member %q not registered", g.Name, id)
		}
		if len(p.Ports) == 0 {
			return fmt.Errorf("core: multicast group %q member %q has no physical ports", g.Name, id)
		}
	}
	cg := Group{Name: g.Name, Prefix: g.Prefix.Masked(), Members: uniq}
	if c.groups == nil {
		c.groups = make(map[string]*Group)
	}
	c.groups[g.Name] = &cg
	c.groupOrder = append(c.groupOrder, g.Name)
	return nil
}

// Groups returns the registered multicast groups in registration order.
func (c *Controller) Groups() []Group {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Group, 0, len(c.groupOrder))
	for _, name := range c.groupOrder {
		out = append(out, *c.groups[name])
	}
	return out
}

// buildGroupRules compiles every group's replication rules through the
// normal policy pipeline: for each member ingress port, a rule matching
// (ingress port, group prefix) that multicasts to the other members' egress
// ports. The result is flattened installable rules, ready to prepend to the
// base table.
func (p *pipeline) buildGroupRules() ([]policy.Rule, error) {
	if len(p.groups) == 0 {
		return nil, nil
	}
	var pols []policy.Policy
	for _, g := range p.groups {
		var ports []uint16
		for _, id := range g.Members {
			part := p.byID[id]
			if part == nil {
				return nil, fmt.Errorf("core: multicast group %q member %q not in snapshot", g.Name, id)
			}
			for _, port := range part.Ports {
				ports = append(ports, port.Number)
			}
		}
		sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
		for _, in := range ports {
			out := make([]uint16, 0, len(ports)-1)
			for _, o := range ports {
				if o != in {
					out = append(out, EgressPort(o))
				}
			}
			pols = append(pols, policy.SeqOf(
				policy.MatchPolicy(policy.MatchAll.Port(in).DstIP(g.Prefix)),
				policy.MulticastTo(out...),
			))
		}
	}
	cl, _ := policy.CompileWithOptions(policy.Par(pols...), p.opts.Compile)
	return p.flatten(cl)
}
