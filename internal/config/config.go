// Package config defines the JSON configuration format the SDX daemons
// consume: the exchange topology (participants, ports, BGP identities) and
// each participant's policies in a declarative branch form that maps onto
// the policy language.
package config

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"os"

	"sdx/internal/core"
	"sdx/internal/netutil"
	"sdx/internal/policy"
)

// File is the top-level configuration document.
type File struct {
	// VNHPool is the virtual next-hop allocation prefix, an IPv4 /8 or
	// longer (default 172.16.0.0/12).
	VNHPool string `json:"vnhPool,omitempty"`
	// LocalAS and RouterID identify the route server's BGP speaker.
	// 4-octet ASNs are accepted (RFC 6793).
	LocalAS  uint32 `json:"localAS"`
	RouterID string `json:"routerID"`

	Participants []ParticipantConfig `json:"participants"`

	// Groups declares multicast groups: traffic from any member addressed
	// to the group prefix is replicated to every other member.
	Groups []GroupConfig `json:"groups,omitempty"`
}

// GroupConfig declares one multicast group.
type GroupConfig struct {
	Name    string   `json:"name"`
	Prefix  string   `json:"prefix"`
	Members []string `json:"members"`
}

// ParticipantConfig declares one AS at the exchange.
type ParticipantConfig struct {
	ID    string       `json:"id"`
	AS    uint32       `json:"as"`
	Ports []PortConfig `json:"ports,omitempty"`
	// VRF places the participant in a tenant isolation domain: VRFs never
	// exchange routes or traffic, so different tenants may advertise
	// overlapping private prefixes. Empty means the shared default domain.
	VRF string `json:"vrf,omitempty"`
	// Prefixes the participant is authorized to originate remotely
	// (the ownership check for announce()).
	Owns []string `json:"owns,omitempty"`

	Inbound  []Branch `json:"inbound,omitempty"`
	Outbound []Branch `json:"outbound,omitempty"`

	// InboundExpr/OutboundExpr are alternatives to the branch lists: the
	// policy written in the paper's surface syntax, e.g.
	// "(match(dstport=80) >> fwd(B)) + (match(dstport=443) >> fwd(C))".
	// fwd() names resolve to participant IDs (virtual-switch forwards) and
	// to port names of the form <ID><n> (delivery on the participant's n-th
	// port), exactly the paper's fwd(B) / fwd(B1) convention.
	InboundExpr  string `json:"inboundExpr,omitempty"`
	OutboundExpr string `json:"outboundExpr,omitempty"`
}

// PortConfig declares one physical attachment.
type PortConfig struct {
	Number   uint16 `json:"number"`
	MAC      string `json:"mac"`
	RouterIP string `json:"routerIP"`
}

// Branch is one policy branch: a match and exactly one action. Branches of
// a policy compose in parallel (the paper's "+").
type Branch struct {
	Match MatchConfig `json:"match"`
	// Exactly one of the following actions:
	FwdTo   string `json:"fwdTo,omitempty"`   // outbound: fwd(participant)
	Deliver uint16 `json:"deliver,omitempty"` // inbound: fwd(own port N)
	Drop    bool   `json:"drop,omitempty"`
	// Mod rewrites headers before the action; DeliverVia selects the
	// egress participant for rewritten traffic (remote policies).
	Mod        *ModConfig `json:"mod,omitempty"`
	DeliverVia string     `json:"deliverVia,omitempty"`
}

// MatchConfig is a conjunction of header constraints; zero values mean
// wildcard. Ports and proto are exact; IPs are CIDR prefixes.
type MatchConfig struct {
	SrcIP   string `json:"srcip,omitempty"`
	DstIP   string `json:"dstip,omitempty"`
	SrcPort uint16 `json:"srcport,omitempty"`
	DstPort uint16 `json:"dstport,omitempty"`
	Proto   uint8  `json:"proto,omitempty"`
}

// ModConfig is a set of header rewrites.
type ModConfig struct {
	SrcIP   string `json:"srcip,omitempty"`
	DstIP   string `json:"dstip,omitempty"`
	SrcPort uint16 `json:"srcport,omitempty"`
	DstPort uint16 `json:"dstport,omitempty"`
}

// Load reads and validates a configuration file.
func Load(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(b)
}

// Parse decodes and validates a configuration document.
func Parse(b []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

func (f *File) validate() error {
	if len(f.Participants) == 0 {
		return fmt.Errorf("config: no participants")
	}
	if f.RouterID != "" {
		if _, err := netip.ParseAddr(f.RouterID); err != nil {
			return fmt.Errorf("config: routerID: %w", err)
		}
	}
	if f.VNHPool != "" {
		p, err := netip.ParsePrefix(f.VNHPool)
		if err == nil {
			// The controller's own rule, so a pool it would refuse is a
			// config error here rather than a panic at start-up.
			_, err = netutil.NewIPPool(p)
		}
		if err != nil {
			return fmt.Errorf("config: vnhPool: %w", err)
		}
	}
	// Every participant and port first: a branch may name a participant
	// declared later in the file.
	ref := branchRefs{portsOf: map[string]int{}, ports: map[uint16]bool{}}
	for _, p := range f.Participants {
		if p.ID == "" {
			return fmt.Errorf("config: participant with empty id")
		}
		if _, dup := ref.portsOf[p.ID]; dup {
			return fmt.Errorf("config: duplicate participant %q", p.ID)
		}
		ref.portsOf[p.ID] = len(p.Ports)
		for _, port := range p.Ports {
			if _, err := netutil.ParseMAC(port.MAC); err != nil {
				return fmt.Errorf("config: participant %q port %d: %w", p.ID, port.Number, err)
			}
			if _, err := netip.ParseAddr(port.RouterIP); err != nil {
				return fmt.Errorf("config: participant %q port %d routerIP: %w", p.ID, port.Number, err)
			}
			ref.ports[port.Number] = true
		}
	}
	for _, p := range f.Participants {
		for i, br := range append(append([]Branch{}, p.Inbound...), p.Outbound...) {
			if err := br.validate(ref); err != nil {
				return fmt.Errorf("config: participant %q branch %d: %w", p.ID, i, err)
			}
		}
		if p.InboundExpr != "" && len(p.Inbound) > 0 {
			return fmt.Errorf("config: participant %q has both inbound branches and inboundExpr", p.ID)
		}
		if p.OutboundExpr != "" && len(p.Outbound) > 0 {
			return fmt.Errorf("config: participant %q has both outbound branches and outboundExpr", p.ID)
		}
		for _, owned := range p.Owns {
			if _, err := netip.ParsePrefix(owned); err != nil {
				return fmt.Errorf("config: participant %q owns %q: %w", p.ID, owned, err)
			}
		}
	}
	groupNames := map[string]bool{}
	for _, g := range f.Groups {
		if g.Name == "" {
			return fmt.Errorf("config: multicast group with empty name")
		}
		if groupNames[g.Name] {
			return fmt.Errorf("config: duplicate multicast group %q", g.Name)
		}
		groupNames[g.Name] = true
		if _, err := netutil.ParseIPv4Prefix(g.Prefix); err != nil {
			return fmt.Errorf("config: group %q prefix: %w", g.Name, err)
		}
		if len(g.Members) < 2 {
			return fmt.Errorf("config: group %q needs at least two members", g.Name)
		}
		for _, m := range g.Members {
			if _, ok := ref.portsOf[m]; !ok {
				return fmt.Errorf("config: group %q member %q is not a participant", g.Name, m)
			}
		}
	}
	return nil
}

// branchRefs is what a branch's action may name: each participant ID with
// its port count, and every declared port number.
type branchRefs struct {
	portsOf map[string]int
	ports   map[uint16]bool
}

func (b Branch) validate(ref branchRefs) error {
	actions := 0
	if b.FwdTo != "" {
		actions++
	}
	if b.Deliver != 0 {
		actions++
	}
	if b.DeliverVia != "" {
		actions++
	}
	if b.Drop {
		actions++
	}
	if actions != 1 {
		return fmt.Errorf("branch needs exactly one of fwdTo/deliver/deliverVia/drop, has %d", actions)
	}
	if b.FwdTo != "" {
		if _, ok := ref.portsOf[b.FwdTo]; !ok {
			return fmt.Errorf("fwdTo %q is not a participant", b.FwdTo)
		}
	}
	if b.Deliver != 0 && !ref.ports[b.Deliver] {
		return fmt.Errorf("deliver: no participant declares port %d", b.Deliver)
	}
	if b.DeliverVia != "" {
		switch n, ok := ref.portsOf[b.DeliverVia]; {
		case !ok:
			return fmt.Errorf("deliverVia %q is not a participant", b.DeliverVia)
		case n == 0:
			return fmt.Errorf("deliverVia %q has no ports", b.DeliverVia)
		}
	}
	if _, err := b.Match.toMatch(); err != nil {
		return err
	}
	if b.Mod != nil {
		if _, err := b.Mod.toMods(); err != nil {
			return err
		}
	}
	return nil
}

func (m MatchConfig) toMatch() (policy.Match, error) {
	out := policy.MatchAll
	if m.SrcIP != "" {
		p, err := netutil.ParseIPv4Prefix(m.SrcIP)
		if err != nil {
			return out, fmt.Errorf("srcip: %w", err)
		}
		out = out.SrcIP(p)
	}
	if m.DstIP != "" {
		p, err := netutil.ParseIPv4Prefix(m.DstIP)
		if err != nil {
			return out, fmt.Errorf("dstip: %w", err)
		}
		out = out.DstIP(p)
	}
	if m.SrcPort != 0 {
		out = out.SrcPort(m.SrcPort)
	}
	if m.DstPort != 0 {
		out = out.DstPort(m.DstPort)
	}
	if m.Proto != 0 {
		out = out.Proto(m.Proto)
	}
	return out, nil
}

func (m ModConfig) toMods() (policy.Mods, error) {
	out := policy.Identity
	if m.SrcIP != "" {
		a, err := netutil.ParseIPv4(m.SrcIP)
		if err != nil {
			return out, fmt.Errorf("mod srcip: %w", err)
		}
		out = out.SetSrcIP(a)
	}
	if m.DstIP != "" {
		a, err := netutil.ParseIPv4(m.DstIP)
		if err != nil {
			return out, fmt.Errorf("mod dstip: %w", err)
		}
		out = out.SetDstIP(a)
	}
	if m.SrcPort != 0 {
		out = out.SetSrcPort(m.SrcPort)
	}
	if m.DstPort != 0 {
		out = out.SetDstPort(m.DstPort)
	}
	return out, nil
}

// ControllerOptions translates the file's controller-level settings into
// core.Options, starting from the paper's defaults.
func (f *File) ControllerOptions() core.Options {
	opts := core.DefaultOptions()
	if f.VNHPool != "" {
		opts.VNHPool = netip.MustParsePrefix(f.VNHPool) // validated by Parse
	}
	return opts
}

// Apply registers every participant with the controller and installs the
// declared policies.
func (f *File) Apply(ctrl *core.Controller) error {
	for _, pc := range f.Participants {
		p := core.Participant{ID: core.ID(pc.ID), AS: pc.AS, VRF: core.VRF(pc.VRF)}
		for _, port := range pc.Ports {
			mac, _ := netutil.ParseMAC(port.MAC)
			ip, _ := netip.ParseAddr(port.RouterIP)
			p.Ports = append(p.Ports, core.Port{Number: port.Number, MAC: mac, RouterIP: ip})
		}
		if err := ctrl.AddParticipant(p); err != nil {
			return err
		}
	}
	for _, gc := range f.Groups {
		g := core.Group{Name: gc.Name, Prefix: netip.MustParsePrefix(gc.Prefix)} // validated by Parse
		for _, m := range gc.Members {
			g.Members = append(g.Members, core.ID(m))
		}
		if err := ctrl.AddGroup(g); err != nil {
			return err
		}
	}
	// Policies second: FwdTo targets may be registered later in the file.
	symbols := f.symbolTable(ctrl)
	for _, pc := range f.Participants {
		inbound, err := buildPolicy(ctrl, pc.Inbound)
		if err != nil {
			return fmt.Errorf("config: participant %q inbound: %w", pc.ID, err)
		}
		outbound, err := buildPolicy(ctrl, pc.Outbound)
		if err != nil {
			return fmt.Errorf("config: participant %q outbound: %w", pc.ID, err)
		}
		if pc.InboundExpr != "" {
			if inbound, err = policy.Parse(pc.InboundExpr, symbols); err != nil {
				return fmt.Errorf("config: participant %q inboundExpr: %w", pc.ID, err)
			}
		}
		if pc.OutboundExpr != "" {
			if outbound, err = policy.Parse(pc.OutboundExpr, symbols); err != nil {
				return fmt.Errorf("config: participant %q outboundExpr: %w", pc.ID, err)
			}
		}
		if inbound != nil || outbound != nil {
			if err := ctrl.SetPolicies(core.ID(pc.ID), inbound, outbound); err != nil {
				return err
			}
		}
	}
	return nil
}

// symbolTable binds the names policy expressions may forward to: every
// participant ID (virtual-switch forward) and every port as <ID><n>
// (delivery on the participant's n-th port), the paper's fwd(B)/fwd(B1).
func (f *File) symbolTable(ctrl *core.Controller) map[string]policy.Policy {
	symbols := make(map[string]policy.Policy)
	for _, pc := range f.Participants {
		symbols[pc.ID] = ctrl.FwdTo(core.ID(pc.ID))
		for i, port := range pc.Ports {
			symbols[fmt.Sprintf("%s%d", pc.ID, i+1)] = ctrl.Deliver(port.Number)
		}
	}
	return symbols
}

// Ownership returns the Originate authorization map declared in the file.
func (f *File) Ownership() map[string][]netip.Prefix {
	out := make(map[string][]netip.Prefix)
	for _, p := range f.Participants {
		for _, owned := range p.Owns {
			out[p.ID] = append(out[p.ID], netip.MustParsePrefix(owned))
		}
	}
	return out
}

func buildPolicy(ctrl *core.Controller, branches []Branch) (policy.Policy, error) {
	if len(branches) == 0 {
		return nil, nil
	}
	var pols []policy.Policy
	for _, b := range branches {
		m, err := b.Match.toMatch()
		if err != nil {
			return nil, err
		}
		stages := []policy.Policy{policy.MatchPolicy(m)}
		if b.Mod != nil {
			mods, err := b.Mod.toMods()
			if err != nil {
				return nil, err
			}
			stages = append(stages, policy.ModPolicy(mods))
		}
		switch {
		case b.Drop:
			stages = append(stages, policy.Drop{})
		case b.FwdTo != "":
			stages = append(stages, ctrl.FwdTo(core.ID(b.FwdTo)))
		case b.Deliver != 0:
			stages = append(stages, ctrl.Deliver(b.Deliver))
		case b.DeliverVia != "":
			stages = append(stages, ctrl.DeliverTo(core.ID(b.DeliverVia)))
		}
		pols = append(pols, policy.SeqOf(stages...))
	}
	return policy.Par(pols...), nil
}
