// Package sdx is a software-defined Internet exchange point: an
// implementation of "SDX: A Software Defined Internet Exchange"
// (Gupta et al., SIGCOMM 2014) in pure Go.
//
// The package re-exports the library's public surface from its internal
// packages. The pieces compose like the paper's Figure 3:
//
//   - A RouteServer collects participants' BGP routes and computes one best
//     route per prefix on behalf of each participant.
//   - A Controller owns the participant topology and their Pyretic-style
//     policies, compiles everything into flow rules (grouping prefixes into
//     VMAC-tagged forwarding equivalence classes to keep tables small), and
//     answers ARP for the virtual next hops it mints.
//   - A Switch is the software fabric: an OpenFlow-1.0-programmable flow
//     table that forwards, rewrites, and counts traffic.
//   - A BGPSpeaker carries real BGP sessions between participant border
//     routers and the route server; a Frontend glues the two together.
//
// Quickstart:
//
//	rs := sdx.NewRouteServer()
//	ctrl := sdx.NewController(rs, sdx.DefaultOptions())
//	ctrl.AddParticipant(sdx.Participant{ID: "A", AS: 65001, Ports: ...})
//	ctrl.SetPolicies("A", nil, sdx.Par(
//	    sdx.SeqOf(sdx.MatchPolicy(sdx.MatchAll.DstPort(80)), ctrl.FwdTo("B")),
//	))
//	res, _ := ctrl.Compile()
//	sw := sdx.NewSwitch(1)
//	sdx.InstallBase(sw, res)
//
// See examples/ for complete programs reproducing the paper's applications.
package sdx

import (
	"net/netip"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/netutil"
	"sdx/internal/openflow"
	"sdx/internal/packet"
	"sdx/internal/policy"
	"sdx/internal/routeserver"
	"sdx/internal/workload"
)

// --- Controller (the paper's contribution, §3-4) ------------------------

// Controller is the SDX controller.
type Controller = core.Controller

// Options configures a Controller.
type Options = core.Options

// Participant is one AS at the exchange.
type Participant = core.Participant

// Port is a participant router's physical attachment.
type Port = core.Port

// ID names a participant.
type ID = core.ID

// FEC is a forwarding equivalence class (prefix group).
type FEC = core.FEC

// CompileResult is one full compilation of the exchange.
type CompileResult = core.CompileResult

// CompileStats carries the evaluation metrics of a compilation.
type CompileStats = core.CompileStats

// FastPathResult is one quick-stage reaction to a BGP update burst.
type FastPathResult = core.FastPathResult

// NewController returns a controller bound to a route-server engine.
func NewController(rs *RouteServer, opts Options) *Controller {
	return core.NewController(rs, opts)
}

// DefaultOptions is the paper's configuration: VNH encoding plus every
// control-plane optimization.
func DefaultOptions() Options { return core.DefaultOptions() }

// EgressPort returns the egress location for a physical port, for use in
// inbound policies (the paper's fwd(B1)).
func EgressPort(physical uint16) uint16 { return core.EgressPort(physical) }

// InstallBase replaces a switch's base rule band with a compilation result.
func InstallBase(sw *Switch, res *CompileResult) error { return core.InstallBase(sw, res) }

// InstallFast adds fast-path rules above the base band.
func InstallFast(sw *Switch, res *FastPathResult) error { return core.InstallFast(sw, res) }

// PushBase writes the base band over an OpenFlow connection.
func PushBase(conn *OFConn, res *CompileResult) error { return core.PushBase(conn, res) }

// PushFast writes a fast-path band over an OpenFlow connection.
func PushFast(conn *OFConn, res *FastPathResult) error { return core.PushFast(conn, res) }

// FlowModsForRules lowers compiled rules to OpenFlow flow-mods.
func FlowModsForRules(rules []Rule, top uint16) ([]*FlowMod, error) {
	return core.FlowModsForRules(rules, top)
}

// --- Policy language (§3.1) ---------------------------------------------

// Policy is a node of the policy algebra.
type Policy = policy.Policy

// Predicate is a boolean condition over packets, used by IfThenElse.
type Predicate = policy.Predicate

// Match is a conjunction of header-field constraints.
type Match = policy.Match

// Mods is a set of header rewrites.
type Mods = policy.Mods

// Rule is one prioritized classifier entry.
type Rule = policy.Rule

// Classifier is a priority-ordered rule list.
type Classifier = policy.Classifier

// LocatedPacket is the policy language's packet view.
type LocatedPacket = policy.Packet

// MatchAll matches every packet.
var MatchAll = policy.MatchAll

// Identity is the empty rewrite.
var Identity = policy.Identity

// MatchPolicy returns the filter policy for m (the paper's match(...)).
func MatchPolicy(m Match) Policy { return policy.MatchPolicy(m) }

// Fwd forwards packets to a location (the paper's fwd(...)).
func Fwd(port uint16) Policy { return policy.Fwd(port) }

// ModPolicy rewrites header fields (the paper's mod(...)).
func ModPolicy(m Mods) Policy { return policy.ModPolicy(m) }

// Par composes policies in parallel (the paper's "+").
func Par(ps ...Policy) Policy { return policy.Par(ps...) }

// SeqOf composes policies sequentially (the paper's ">>").
func SeqOf(ps ...Policy) Policy { return policy.SeqOf(ps...) }

// IfThenElse routes packets matching pred through then, others through els.
func IfThenElse(pred Predicate, then, els Policy) Policy {
	return policy.IfThenElse(pred, then, els)
}

// WithDefault wraps primary so unmatched traffic follows def.
func WithDefault(primary, def Policy) Policy { return policy.WithDefault(primary, def) }

// DropPolicy discards every packet.
func DropPolicy() Policy { return policy.Drop{} }

// PassPolicy forwards every packet unchanged.
func PassPolicy() Policy { return policy.Pass{} }

// MatchPred is the atomic predicate for m.
func MatchPred(m Match) Predicate { return &policy.MatchPred{Match: m} }

// AnyOf is predicate disjunction; AllOf conjunction; Not negation.
func AnyOf(ps ...Predicate) Predicate { return policy.AnyOf(ps...) }

// AllOf is predicate conjunction.
func AllOf(ps ...Predicate) Predicate { return policy.AllOf(ps...) }

// Not complements a predicate.
func Not(p Predicate) Predicate { return policy.Not(p) }

// Compile translates a policy into an equivalent classifier.
func CompilePolicy(p Policy) Classifier { return policy.Compile(p) }

// ParsePolicy reads a policy written in the paper's surface syntax, e.g.
// "(match(dstport=80) >> fwd(B)) + (match(dstport=443) >> fwd(C))".
// Names inside fwd() resolve through symbols; bind participant names to
// Controller.FwdTo and port names to Controller.Deliver.
func ParsePolicy(src string, symbols map[string]Policy) (Policy, error) {
	return policy.Parse(src, symbols)
}

// --- Route server (§3.2) -------------------------------------------------

// RouteServer is the route-server engine.
type RouteServer = routeserver.Server

// RouteServerFrontend glues a RouteServer to live BGP sessions.
type RouteServerFrontend = routeserver.Frontend

// ExportFilter decides route export between participant pairs.
type ExportFilter = routeserver.ExportFilter

// NewRouteServer returns an engine that exports every route (the
// route-server default); pass an ExportFilter via NewRouteServerWithPolicy
// for selective export.
func NewRouteServer() *RouteServer { return routeserver.New(nil) }

// NewRouteServerWithPolicy returns an engine with a per-pair export policy.
func NewRouteServerWithPolicy(f ExportFilter) *RouteServer { return routeserver.New(f) }

// NewRouteServerFrontend wires an engine to a BGP speaker.
func NewRouteServerFrontend(s *RouteServer, sp *BGPSpeaker) *RouteServerFrontend {
	return routeserver.NewFrontend(s, sp)
}

// RouteExportFilter is a route-level (community-aware) export filter.
type RouteExportFilter = routeserver.RouteExportFilter

// CommunityExportPolicy returns the conventional RFC 1997 route-server
// export controls — (0,0) announce to no one, (0,peerAS) block one peer,
// (rsAS,peerAS) whitelist — for a route server with the given AS.
func CommunityExportPolicy(rsAS uint32) RouteExportFilter {
	return routeserver.CommunityExportPolicy(rsAS)
}

// Community packs an (upper, lower) pair into a BGP community value.
func Community(upper, lower uint16) uint32 { return routeserver.Community(upper, lower) }

// --- BGP substrate --------------------------------------------------------

// BGPSpeaker manages BGP sessions sharing one local configuration.
type BGPSpeaker = bgp.Speaker

// BGPSessionConfig parameterizes one side of a BGP session.
type BGPSessionConfig = bgp.SessionConfig

// BGPUpdate is a BGP UPDATE message.
type BGPUpdate = bgp.Update

// BGPRoute is one path to a prefix.
type BGPRoute = bgp.Route

// PathAttrs is a BGP UPDATE's attribute set.
type PathAttrs = bgp.PathAttrs

// InternPathAttrs canonicalizes an attribute set through the process-wide
// interning table; Route.Attrs must point at an interned set so equal
// attribute combinations share storage and compare by pointer.
func InternPathAttrs(a PathAttrs) *PathAttrs { return bgp.Intern(a) }

// ASPathSegment is one AS_PATH segment.
type ASPathSegment = bgp.ASPathSegment

// NewBGPSpeaker returns a speaker with the given local configuration.
func NewBGPSpeaker(cfg BGPSessionConfig) *BGPSpeaker { return bgp.NewSpeaker(cfg) }

// --- Data plane ------------------------------------------------------------

// Switch is the software fabric switch.
type Switch = dataplane.Switch

// FlowEntry is one installed rule with counters.
type FlowEntry = dataplane.FlowEntry

// PortStats counts traffic through a switch port.
type PortStats = dataplane.PortStats

// NewSwitch returns an empty switch with the given datapath id.
func NewSwitch(datapathID uint64) *Switch { return dataplane.NewSwitch(datapathID) }

// Fabric joins several switches into one big-switch abstraction (§4.1
// "multiple physical switches"): compiled rules install at each packet's
// ingress switch and destination-MAC transit rules carry rewritten packets
// across trunk links.
type Fabric = dataplane.Fabric

// NewFabric returns an empty multi-switch fabric.
func NewFabric() *Fabric { return dataplane.NewFabric() }

// --- OpenFlow channel -------------------------------------------------------

// OFConn is a framed OpenFlow connection.
type OFConn = openflow.Conn

// FlowMod is an OpenFlow flow-table modification.
type FlowMod = openflow.FlowMod

// PacketIn is a switch-to-controller packet event.
type PacketIn = openflow.PacketIn

// PacketOut is a controller-to-switch packet injection.
type PacketOut = openflow.PacketOut

// --- Packets ---------------------------------------------------------------

// Packet is a decoded Ethernet frame.
type Packet = packet.Packet

// MAC is a 48-bit hardware address.
type MAC = netutil.MAC

// ParseMAC parses "aa:bb:cc:dd:ee:ff".
func ParseMAC(s string) (MAC, error) { return netutil.ParseMAC(s) }

// MustParseMAC is ParseMAC for static configuration.
func MustParseMAC(s string) MAC { return netutil.MustParseMAC(s) }

// DecodePacket parses an Ethernet frame.
func DecodePacket(b []byte) (*Packet, error) { return packet.Decode(b) }

// NewUDPPacket builds a UDP-in-IPv4-in-Ethernet frame.
func NewUDPPacket(srcMAC, dstMAC MAC, srcIP, dstIP netip.Addr, srcPort, dstPort uint16, payload []byte) *Packet {
	return packet.NewUDP(srcMAC, dstMAC, srcIP, dstIP, srcPort, dstPort, payload)
}

// --- Workload generators (§6.1) ---------------------------------------------

// Exchange is a synthetic IXP population.
type Exchange = workload.Exchange

// IXPProfile summarizes one Table 1 dataset.
type IXPProfile = workload.Profile

// PolicyMixOptions scales the §6.1 policy assignment.
type PolicyMixOptions = workload.PolicyMixOptions

// TraceOptions calibrates the synthetic BGP update traces.
type TraceOptions = workload.TraceOptions

// UpdateBurst is a group of BGP updates arriving together.
type UpdateBurst = workload.Burst
