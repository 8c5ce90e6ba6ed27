package dataplane

import (
	"fmt"
	"sort"

	"sdx/internal/netutil"
	"sdx/internal/openflow"
	"sdx/internal/policy"
)

// Fabric joins several switches into one big-switch abstraction — the
// paper's §4.1 "the SDX may consist of multiple physical switches, each
// connected to a subset of the participants", realized with the topology
// split it describes: the compiled SDX policy runs at each packet's ingress
// switch, and a simple destination-MAC routing policy carries the already-
// rewritten packet across trunk links to its egress switch. By SDX
// construction every packet leaving the policy stage carries its recipient
// router's MAC, so MAC-based transit is exact.
//
// Global port numbers (the ones the controller compiles against) map to
// (switch, local port) pairs; trunk links are internal and invisible to
// the controller.
type Fabric struct {
	switches map[uint64]*Switch
	// ports maps global port -> location.
	ports map[uint16]fabricPort
	// trunks[a][b] is a's local port leading toward the adjacent switch b.
	trunks map[uint64]map[uint64]uint16
	// nextHop[a][b] is a's local trunk port on the path toward switch b
	// (computed by BFS when rules are installed).
	nextHop map[uint64]map[uint64]uint16
}

type fabricPort struct {
	dpid  uint64
	local uint16
	mac   netutil.MAC
}

// NewFabric returns an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{
		switches: make(map[uint64]*Switch),
		ports:    make(map[uint16]fabricPort),
		trunks:   make(map[uint64]map[uint64]uint16),
	}
}

// AddSwitch registers a member switch by its datapath id.
func (f *Fabric) AddSwitch(sw *Switch) error {
	if _, dup := f.switches[sw.DatapathID]; dup {
		return fmt.Errorf("dataplane: duplicate switch %#x in fabric", sw.DatapathID)
	}
	f.switches[sw.DatapathID] = sw
	return nil
}

// Connect creates a trunk link between two member switches, wiring each
// side's local trunk port to inject into the other switch.
func (f *Fabric) Connect(a uint64, aPort uint16, b uint64, bPort uint16) error {
	swA, okA := f.switches[a]
	swB, okB := f.switches[b]
	if !okA || !okB {
		return fmt.Errorf("dataplane: trunk between unknown switches %#x-%#x", a, b)
	}
	swA.AttachPort(aPort, func(frame []byte) { swB.Inject(bPort, frame) })
	swB.AttachPort(bPort, func(frame []byte) { swA.Inject(aPort, frame) })
	if f.trunks[a] == nil {
		f.trunks[a] = make(map[uint64]uint16)
	}
	if f.trunks[b] == nil {
		f.trunks[b] = make(map[uint64]uint16)
	}
	f.trunks[a][b] = aPort
	f.trunks[b][a] = bPort
	f.nextHop = nil // topology changed; recompute lazily
	return nil
}

// MapPort binds a global (controller-visible) port to a member switch's
// local port and records the attached router's MAC for transit routing.
// The sink receives frames the fabric emits on that port.
func (f *Fabric) MapPort(global uint16, dpid uint64, local uint16, mac netutil.MAC, sink func([]byte)) error {
	sw, ok := f.switches[dpid]
	if !ok {
		return fmt.Errorf("dataplane: mapping port %d to unknown switch %#x", global, dpid)
	}
	if _, dup := f.ports[global]; dup {
		return fmt.Errorf("dataplane: global port %d mapped twice", global)
	}
	f.ports[global] = fabricPort{dpid: dpid, local: local, mac: mac}
	sw.AttachPort(local, sink)
	return nil
}

// Inject delivers a frame into the fabric on a global port.
func (f *Fabric) Inject(global uint16, frame []byte) error {
	p, ok := f.ports[global]
	if !ok {
		return fmt.Errorf("dataplane: inject on unmapped global port %d", global)
	}
	return f.switches[p.dpid].Inject(p.local, frame)
}

// InjectBatch delivers a batch of frames into the fabric on a global port,
// with the batched fast path of Switch.InjectBatch at the ingress switch.
func (f *Fabric) InjectBatch(global uint16, frames [][]byte) error {
	p, ok := f.ports[global]
	if !ok {
		return fmt.Errorf("dataplane: inject on unmapped global port %d", global)
	}
	return f.switches[p.dpid].InjectBatch(p.local, frames)
}

// computePaths runs BFS from every switch over the trunk graph.
func (f *Fabric) computePaths() error {
	f.nextHop = make(map[uint64]map[uint64]uint16, len(f.switches))
	var ids []uint64
	for id := range f.switches {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, src := range ids {
		f.nextHop[src] = make(map[uint64]uint16)
		// BFS recording the first trunk hop toward each destination.
		visited := map[uint64]bool{src: true}
		type hop struct {
			at    uint64
			first uint16 // src's trunk port the path starts with
		}
		var queue []hop
		var neigh []uint64
		for n := range f.trunks[src] {
			neigh = append(neigh, n)
		}
		sort.Slice(neigh, func(i, j int) bool { return neigh[i] < neigh[j] })
		for _, n := range neigh {
			visited[n] = true
			f.nextHop[src][n] = f.trunks[src][n]
			queue = append(queue, hop{at: n, first: f.trunks[src][n]})
		}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			var next []uint64
			for n := range f.trunks[cur.at] {
				next = append(next, n)
			}
			sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
			for _, n := range next {
				if visited[n] {
					continue
				}
				visited[n] = true
				f.nextHop[src][n] = cur.first
				queue = append(queue, hop{at: n, first: cur.first})
			}
		}
		for _, dst := range ids {
			if dst != src && f.nextHop[src][dst] == 0 {
				if _, connected := f.nextHop[src][dst]; !connected {
					return fmt.Errorf("dataplane: switches %#x and %#x are not connected", src, dst)
				}
			}
		}
	}
	return nil
}

// InstallGlobal programs the fabric from rules compiled against the global
// single-switch view: each rule lands on its ingress switch with ports
// rewritten to local numbers and remote outputs redirected to trunks, and
// every switch gets low-priority destination-MAC transit rules that carry
// rewritten packets toward their egress switch.
func (f *Fabric) InstallGlobal(rules []policy.Rule) error {
	if f.nextHop == nil {
		if err := f.computePaths(); err != nil {
			return err
		}
	}
	for _, sw := range f.switches {
		sw.Table.Clear()
	}

	// Policy rules at the ingress switch. Rules without a port constraint
	// apply at every switch (on its own local ports only, which is exactly
	// what localizing each action achieves). FLOW_MODs are accumulated per
	// switch and applied with one InstallFlowMods call each.
	const transitPriority = 10
	top := uint16(0xf000)
	batches := make(map[uint64][]*openflow.FlowMod, len(f.switches))
	for i, r := range rules {
		priority := top - uint16(i)
		targets := f.ingressSwitches(r)
		for _, dpid := range targets {
			local, err := f.localizeRule(dpid, r)
			if err != nil {
				return err
			}
			fm, err := openflow.FlowModFromRule(local, priority)
			if err != nil {
				return err
			}
			batches[dpid] = append(batches[dpid], fm)
		}
	}

	// Transit rules: dstmac of each mapped port steers to the local port or
	// the next trunk hop.
	for dpid := range f.switches {
		for _, fp := range f.sortedPorts() {
			out := fp.local
			if fp.dpid != dpid {
				out = f.nextHop[dpid][fp.dpid]
			}
			batches[dpid] = append(batches[dpid], &openflow.FlowMod{
				Match:    openflow.MatchFromPolicy(policy.MatchAll.DstMAC(fp.mac)),
				Command:  openflow.FlowModAdd,
				Priority: transitPriority,
				Actions:  []openflow.Action{openflow.Output(out)},
			})
		}
	}
	for dpid, sw := range f.switches {
		if err := sw.InstallFlowMods(batches[dpid]); err != nil {
			return err
		}
	}
	return nil
}

// ingressSwitches returns the switches a rule must be installed on: the
// port's switch when the match pins a port, every switch with mapped ports
// otherwise.
func (f *Fabric) ingressSwitches(r policy.Rule) []uint64 {
	if g, ok := r.Match.GetPort(); ok {
		if fp, mapped := f.ports[g]; mapped {
			return []uint64{fp.dpid}
		}
		return nil // rule for an unmapped port: nowhere to install
	}
	seen := map[uint64]bool{}
	var out []uint64
	for _, fp := range f.ports {
		if !seen[fp.dpid] {
			seen[fp.dpid] = true
			out = append(out, fp.dpid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// localizeRule rewrites a global rule for one switch: the port match
// becomes the local port, same-switch outputs become local ports, and
// remote outputs become the trunk toward the target switch.
func (f *Fabric) localizeRule(dpid uint64, r policy.Rule) (policy.Rule, error) {
	out := policy.Rule{Match: r.Match}
	if g, ok := r.Match.GetPort(); ok {
		fp := f.ports[g]
		out.Match = out.Match.Port(fp.local)
	}
	for _, a := range r.Actions {
		g, ok := a.GetPort()
		if !ok {
			continue
		}
		fp, mapped := f.ports[g]
		if !mapped {
			return out, fmt.Errorf("dataplane: rule outputs to unmapped global port %d", g)
		}
		if fp.dpid == dpid {
			out.Actions = append(out.Actions, a.SetPort(fp.local))
			continue
		}
		trunk, ok := f.nextHop[dpid][fp.dpid]
		if !ok {
			return out, fmt.Errorf("dataplane: no path from %#x to %#x", dpid, fp.dpid)
		}
		out.Actions = append(out.Actions, a.SetPort(trunk))
	}
	return out, nil
}

func (f *Fabric) sortedPorts() []fabricPort {
	var globals []int
	for g := range f.ports {
		globals = append(globals, int(g))
	}
	sort.Ints(globals)
	out := make([]fabricPort, 0, len(globals))
	for _, g := range globals {
		out = append(out, f.ports[uint16(g)])
	}
	return out
}

// RuleCount returns the total installed rules across member switches — the
// multi-switch data-plane state metric.
func (f *Fabric) RuleCount() int {
	n := 0
	for _, sw := range f.switches {
		n += sw.Table.Len()
	}
	return n
}
