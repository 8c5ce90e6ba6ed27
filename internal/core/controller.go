package core

import (
	"fmt"
	"net/netip"
	"sync"

	"sdx/internal/bgp"
	"sdx/internal/netutil"
	"sdx/internal/policy"
	"sdx/internal/routeserver"
	"sdx/internal/telemetry"
)

// Options configures a Controller.
type Options struct {
	// VNHEncoding enables the §4.2 data-plane state reduction: prefixes are
	// grouped into forwarding equivalence classes tagged by virtual MACs,
	// and policies match tags instead of destination prefixes. Disabling it
	// (the ablation baseline) inserts raw prefix filters instead.
	VNHEncoding bool
	// VNHPool is the prefix VNH addresses are drawn from; defaults to
	// 172.16.0.0/12 (the paper uses a private block the same way).
	VNHPool netip.Prefix
	// Compile carries the §4.3 optimization toggles through to the policy
	// compiler.
	Compile policy.CompileOptions
	// Telemetry, when non-nil, registers the controller's metrics (compile
	// durations and stage splits, classifier and flow-rule counts, FEC
	// count, VNH pool occupancy, serialization waits) with the registry.
	Telemetry *telemetry.Registry
}

// DefaultOptions is the paper's configuration: VNH encoding and every
// control-plane optimization on.
func DefaultOptions() Options {
	return Options{
		VNHEncoding: true,
		VNHPool:     netip.MustParsePrefix("172.16.0.0/12"),
	}
}

// Controller is the SDX controller: it owns the participant topology,
// consults the route server, compiles the global policy, and answers ARP
// for virtual next hops.
type Controller struct {
	opts Options
	rs   *routeserver.Server

	// compileMu serializes full compilations (Compile/Reoptimize): the
	// snapshot-compute-commit pipeline must not let a compilation that
	// snapshotted earlier commit over one that snapshotted later. It is
	// always taken before mu; never the other way around.
	compileMu sync.Mutex

	mu           sync.RWMutex
	participants map[ID]*Participant
	order        []ID
	vports       map[ID]uint16
	portMACs     map[uint16]netutil.MAC
	portOwner    map[uint16]ID
	nextVirtual  uint16

	// groups holds the registered multicast groups; groupOrder preserves
	// registration order for deterministic compilation.
	groups     map[string]*Group
	groupOrder []string

	pool *netutil.IPPool
	fecs *FECTable
	// mds caches the incremental MDS inputs (reach sets, universe,
	// signatures) between background passes. Participant registration
	// invalidates it; a policy change reaches it only through the reach
	// keys, which every refresh compares.
	mds *fecState
	// fastCache memoizes quick-stage compilations by MDS signature;
	// invalidated by any configuration change and by every
	// full-compilation commit.
	fastCache fastPathCache

	// metrics is set at construction from Options and never mutated, so
	// the compile paths read it without locking.
	metrics *coreMetrics
}

// NewController returns a controller bound to a route-server engine.
func NewController(rs *routeserver.Server, opts Options) *Controller {
	if !opts.VNHPool.IsValid() {
		opts.VNHPool = netip.MustParsePrefix("172.16.0.0/12")
	}
	pool, err := netutil.NewIPPool(opts.VNHPool)
	if err != nil {
		panic(fmt.Sprintf("core: bad VNH pool: %v", err))
	}
	c := &Controller{
		opts:         opts,
		rs:           rs,
		participants: make(map[ID]*Participant),
		vports:       make(map[ID]uint16),
		portMACs:     make(map[uint16]netutil.MAC),
		portOwner:    make(map[uint16]ID),
		nextVirtual:  virtualBase,
		pool:         pool,
		fecs:         newFECTable(),
		mds:          newFECState(),
	}
	c.metrics = newCoreMetrics(opts.Telemetry, c)
	return c
}

// RouteServer returns the underlying engine.
func (c *Controller) RouteServer() *routeserver.Server { return c.rs }

// Options returns the controller's configuration.
func (c *Controller) Options() Options { return c.opts }

// AddParticipant registers a participant with the controller and, if not
// already present, with the route server. Port numbers must be unique
// across participants and within the physical range.
func (c *Controller) AddParticipant(p Participant) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.participants[p.ID]; dup {
		return fmt.Errorf("core: participant %q already registered", p.ID)
	}
	for _, port := range p.Ports {
		if !IsPhysical(port.Number) {
			return fmt.Errorf("core: port %d of %q outside the physical range 1..%d",
				port.Number, p.ID, maxPhysicalPort)
		}
		if owner, taken := c.portOwner[port.Number]; taken {
			return fmt.Errorf("core: port %d of %q already owned by %q", port.Number, p.ID, owner)
		}
	}
	if _, ok := c.rs.AS(p.ID); !ok {
		if err := c.rs.AddParticipant(p.ID, p.AS); err != nil {
			return err
		}
	}
	if p.VRF != "" {
		// The route server enforces isolation at the decision process; the
		// controller's compile passes enforce it in the forwarding tables.
		if err := c.rs.SetVRF(p.ID, p.VRF); err != nil {
			return err
		}
	}
	cp := p
	cp.Ports = append([]Port(nil), p.Ports...)
	c.participants[p.ID] = &cp
	c.order = append(c.order, p.ID)
	c.vports[p.ID] = c.nextVirtual
	c.nextVirtual++
	for _, port := range cp.Ports {
		c.portMACs[port.Number] = port.MAC
		c.portOwner[port.Number] = p.ID
	}
	c.fastCache.invalidate()
	c.mds.invalidate()
	return nil
}

// SetPolicies replaces a participant's policies. Call Compile afterwards to
// realize the change (the paper's "configuration change" workload). The
// cached MDS state is kept: the only policy input it reads is the reach keys
// (which participants forward to which next hops), and the next refresh
// rebuilds it from scratch if those changed. A change that keeps them, such
// as a new header match toward the same next hops, compiles incrementally.
func (c *Controller) SetPolicies(id ID, inbound, outbound policy.Policy) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.participants[id]
	if !ok {
		return fmt.Errorf("core: unknown participant %q", id)
	}
	p.Inbound, p.Outbound = inbound, outbound
	c.fastCache.invalidate()
	return nil
}

// Participant returns a copy of the registered participant.
func (c *Controller) Participant(id ID) (Participant, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, ok := c.participants[id]
	if !ok {
		return Participant{}, false
	}
	return *p, true
}

// Participants returns the registered IDs in registration order.
func (c *Controller) Participants() []ID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]ID(nil), c.order...)
}

// PortOwner returns the participant owning a physical port.
func (c *Controller) PortOwner(port uint16) (ID, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	id, ok := c.portOwner[port]
	return id, ok
}

// NextHopFor is the routeserver.NextHopResolver the controller supplies to
// the route-server frontend: prefixes in a forwarding equivalence class
// advertise that class's virtual next hop; everything else keeps the
// original next-hop address (plain route-server behaviour).
func (c *Controller) NextHopFor(receiver routeserver.ID, prefix netip.Prefix, route bgp.Route) netip.Addr {
	if fec, ok := c.fecs.ByVRFPrefix(c.vrfOfID(receiver), prefix); ok {
		return fec.VNH
	}
	return route.NextHop()
}

// vrfOfID returns a registered participant's isolation domain (the default
// domain for unknown IDs).
func (c *Controller) vrfOfID(id ID) VRF {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if p, ok := c.participants[id]; ok {
		return p.VRF
	}
	return ""
}

// VMACFor returns the virtual MAC tagging prefix's equivalence class in
// the default domain, if the prefix is in one.
func (c *Controller) VMACFor(prefix netip.Prefix) (netutil.MAC, bool) {
	return c.VMACForIn("", prefix)
}

// VMACForIn is VMACFor scoped to a tenant domain.
func (c *Controller) VMACForIn(vrf VRF, prefix netip.Prefix) (netutil.MAC, bool) {
	fec, ok := c.fecs.ByVRFPrefix(vrf, prefix)
	if !ok {
		return netutil.MAC{}, false
	}
	return fec.VMAC, true
}

// FECs returns the current equivalence-class table.
func (c *Controller) FECs() []FEC { return c.fecs.All() }
