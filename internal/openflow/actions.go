package openflow

import (
	"encoding/binary"
	"fmt"
	"sort"

	"sdx/internal/netutil"
	"sdx/internal/policy"
)

// Action types (OF 1.0 §5.2.4). ActionTypeGroup is a private extension in
// the vendor code space: one replication action carrying a whole output
// port set. It is exactly equivalent to that many consecutive Output
// actions — the dataplane rewrites the frame once and emits it to
// every listed port in ascending order — so lowering multi-copy rules to it
// never changes semantics, only the serialization cost.
const (
	ActionTypeOutput   uint16 = 0
	ActionTypeSetDLSrc uint16 = 4
	ActionTypeSetDLDst uint16 = 5
	ActionTypeSetNWSrc uint16 = 6
	ActionTypeSetNWDst uint16 = 7
	ActionTypeSetTPSrc uint16 = 9
	ActionTypeSetTPDst uint16 = 10
	ActionTypeGroup    uint16 = 0xffa0
)

// Action is one element of a flow-mod or packet-out action list, applied in
// order; Output emits the packet as currently rewritten.
type Action struct {
	Type  uint16
	Port  uint16        // Output
	MAC   netutil.MAC   // SetDLSrc / SetDLDst
	TP    uint16        // SetTPSrc / SetTPDst
	IP    netutil.Addr4 // SetNWSrc / SetNWDst
	Ports []uint16      // Group: member ports, ascending
}

// Output returns an output action.
func Output(port uint16) Action { return Action{Type: ActionTypeOutput, Port: port} }

// Group returns a replication action emitting to every listed port in
// ascending order. The slice is sorted in place.
func Group(ports []uint16) Action {
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	return Action{Type: ActionTypeGroup, Ports: ports}
}

func (a Action) encode(b []byte) []byte {
	switch a.Type {
	case ActionTypeOutput:
		b = binary.BigEndian.AppendUint16(b, a.Type)
		b = binary.BigEndian.AppendUint16(b, 8)
		b = binary.BigEndian.AppendUint16(b, a.Port)
		return binary.BigEndian.AppendUint16(b, 0xffff) // max_len
	case ActionTypeSetDLSrc, ActionTypeSetDLDst:
		b = binary.BigEndian.AppendUint16(b, a.Type)
		b = binary.BigEndian.AppendUint16(b, 16)
		b = append(b, a.MAC[:]...)
		return append(b, 0, 0, 0, 0, 0, 0) // pad
	case ActionTypeSetNWSrc, ActionTypeSetNWDst:
		b = binary.BigEndian.AppendUint16(b, a.Type)
		b = binary.BigEndian.AppendUint16(b, 8)
		return binary.BigEndian.AppendUint32(b, uint32(a.IP))
	case ActionTypeSetTPSrc, ActionTypeSetTPDst:
		b = binary.BigEndian.AppendUint16(b, a.Type)
		b = binary.BigEndian.AppendUint16(b, 8)
		b = binary.BigEndian.AppendUint16(b, a.TP)
		return append(b, 0, 0) // pad
	case ActionTypeGroup:
		// type(2) len(2) count(2) ports(2*count), zero-padded to the 8-byte
		// action alignment.
		alen := 6 + 2*len(a.Ports)
		alen = (alen + 7) &^ 7
		b = binary.BigEndian.AppendUint16(b, a.Type)
		b = binary.BigEndian.AppendUint16(b, uint16(alen))
		b = binary.BigEndian.AppendUint16(b, uint16(len(a.Ports)))
		for _, p := range a.Ports {
			b = binary.BigEndian.AppendUint16(b, p)
		}
		for pad := alen - 6 - 2*len(a.Ports); pad > 0; pad-- {
			b = append(b, 0)
		}
		return b
	}
	panic(fmt.Sprintf("openflow: cannot encode action type %d", a.Type))
}

func decodeActions(b []byte) ([]Action, error) {
	var out []Action
	if n := countActions(b); n > 0 {
		out = make([]Action, 0, n)
	}
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("openflow: action header truncated")
		}
		typ := binary.BigEndian.Uint16(b[0:2])
		alen := int(binary.BigEndian.Uint16(b[2:4]))
		if alen < 8 || alen%8 != 0 || alen > len(b) {
			return nil, fmt.Errorf("openflow: bad action length %d", alen)
		}
		a := Action{Type: typ}
		switch typ {
		case ActionTypeOutput:
			a.Port = binary.BigEndian.Uint16(b[4:6])
		case ActionTypeSetDLSrc, ActionTypeSetDLDst:
			if alen < 16 {
				return nil, fmt.Errorf("openflow: set-dl action length %d", alen)
			}
			copy(a.MAC[:], b[4:10])
		case ActionTypeSetNWSrc, ActionTypeSetNWDst:
			a.IP = netutil.Addr4(binary.BigEndian.Uint32(b[4:8]))
		case ActionTypeSetTPSrc, ActionTypeSetTPDst:
			a.TP = binary.BigEndian.Uint16(b[4:6])
		case ActionTypeGroup:
			n := int(binary.BigEndian.Uint16(b[4:6]))
			if 6+2*n > alen {
				return nil, fmt.Errorf("openflow: group action with %d ports in %d bytes", n, alen)
			}
			a.Ports = make([]uint16, n)
			for i := range a.Ports {
				a.Ports[i] = binary.BigEndian.Uint16(b[6+2*i : 8+2*i])
			}
		default:
			return nil, fmt.Errorf("openflow: unsupported action type %d", typ)
		}
		out = append(out, a)
		b = b[alen:]
	}
	return out, nil
}

// countActions counts the well-framed actions at the front of b, so that
// decodeActions sizes its list once.
func countActions(b []byte) int {
	n := 0
	for len(b) >= 4 {
		alen := int(binary.BigEndian.Uint16(b[2:4]))
		if alen < 8 || alen > len(b) {
			break
		}
		b = b[alen:]
		n++
	}
	return n
}

// ActionsFromMods lowers one policy action (a Mods rewrite whose port field
// is the output) to an OpenFlow action list: set-field actions followed by
// an output. A Mods without a port assignment drops, which in OpenFlow is
// the empty action list — callers encode that as a rule with no actions.
func ActionsFromMods(mods policy.Mods) ([]Action, error) {
	port, ok := mods.GetPort()
	if !ok {
		return nil, nil // drop
	}
	out := make([]Action, 0, modsWeight(mods)+1)
	if v, ok := mods.GetSrcMAC(); ok {
		out = append(out, Action{Type: ActionTypeSetDLSrc, MAC: v})
	}
	if v, ok := mods.GetDstMAC(); ok {
		out = append(out, Action{Type: ActionTypeSetDLDst, MAC: v})
	}
	if v, ok := mods.GetSrcIP(); ok {
		out = append(out, Action{Type: ActionTypeSetNWSrc, IP: v})
	}
	if v, ok := mods.GetDstIP(); ok {
		out = append(out, Action{Type: ActionTypeSetNWDst, IP: v})
	}
	if v, ok := mods.GetSrcPort(); ok {
		out = append(out, Action{Type: ActionTypeSetTPSrc, TP: v})
	}
	if v, ok := mods.GetDstPort(); ok {
		out = append(out, Action{Type: ActionTypeSetTPDst, TP: v})
	}
	return append(out, Output(port)), nil
}

// FlowModFromRule lowers a compiled policy rule to a FLOW_MOD. OpenFlow
// applies a rule's action list sequentially, so a multicast rule whose
// copies carry different header rewrites must emit incremental set-field
// actions: copies are ordered by ascending rewrite count, and a field
// modified for an earlier copy but needed unmodified by a later one is
// restored from the rule's match when it pins that field exactly. When no
// exact value is available the rule cannot be expressed in OF 1.0 and an
// error is returned (the SDX applications never need this case).
func FlowModFromRule(r policy.Rule, priority uint16) (*FlowMod, error) {
	fm := new(FlowMod)
	if err := LowerRule(fm, r, priority); err != nil {
		return nil, err
	}
	return fm, nil
}

// LowerRule is FlowModFromRule writing into fm, so that a caller lowering a
// whole table can allocate its FLOW_MODs as one slice. A single-copy rule,
// the common case, costs one allocation: its action list.
func LowerRule(fm *FlowMod, r policy.Rule, priority uint16) error {
	*fm = FlowMod{
		Match:    MatchFromPolicy(r.Match),
		Command:  FlowModAdd,
		Priority: priority,
	}
	if r.IsDrop() {
		return nil // no actions = drop
	}
	actions := r.Actions
	if len(actions) >= 2 {
		actions = append([]policy.Mods(nil), actions...)
		sort.Slice(actions, func(i, j int) bool {
			return modsWeight(actions[i]) < modsWeight(actions[j])
		})
	}
	// Copies that differ only in output port are a replication rule: lower
	// to the shared rewrites once plus a single Group action over the member
	// ports, so the dataplane serializes the rewritten frame exactly once.
	if len(actions) >= 2 && samePortlessCopies(actions) {
		ports := make([]uint16, len(actions))
		for i, m := range actions {
			ports[i], _ = m.GetPort()
		}
		acts, err := ActionsFromMods(actions[0])
		if err != nil {
			return err
		}
		fm.Actions = append(acts[:len(acts)-1], Group(ports))
		return nil
	}
	applied := policy.Identity
	for _, mods := range actions {
		delta, err := deltaMods(applied, mods, r.Match)
		if err != nil {
			return err
		}
		acts, err := ActionsFromMods(delta)
		if err != nil {
			return err
		}
		if acts == nil {
			return fmt.Errorf("openflow: multicast copy without an output port in %v", r)
		}
		if fm.Actions == nil {
			fm.Actions = acts
		} else {
			fm.Actions = append(fm.Actions, acts...)
		}
		applied = applied.Then(delta)
	}
	return nil
}

// samePortlessCopies reports whether every copy carries an output port and
// all copies apply identical header rewrites (ports normalized away).
func samePortlessCopies(actions []policy.Mods) bool {
	if _, ok := actions[0].GetPort(); !ok {
		return false
	}
	base := actions[0].SetPort(0)
	for _, m := range actions[1:] {
		if _, ok := m.GetPort(); !ok {
			return false
		}
		if m.SetPort(0) != base {
			return false
		}
	}
	return true
}

func modsWeight(m policy.Mods) int {
	n := 0
	if _, ok := m.GetSrcMAC(); ok {
		n++
	}
	if _, ok := m.GetDstMAC(); ok {
		n++
	}
	if _, ok := m.GetSrcIP(); ok {
		n++
	}
	if _, ok := m.GetDstIP(); ok {
		n++
	}
	if _, ok := m.GetSrcPort(); ok {
		n++
	}
	if _, ok := m.GetDstPort(); ok {
		n++
	}
	return n
}

// deltaMods computes the set-field actions that transform a packet already
// rewritten by prev into the state wanted by next, restoring fields from
// the rule match where possible.
func deltaMods(prev, next policy.Mods, match policy.Match) (policy.Mods, error) {
	out := next
	restore := func(field string, prevSet, nextSet bool, fromMatch func() (policy.Mods, bool)) (policy.Mods, error) {
		if !prevSet || nextSet {
			return out, nil
		}
		m, ok := fromMatch()
		if !ok {
			return out, fmt.Errorf("openflow: multicast copies diverge on %s and the match does not pin it", field)
		}
		return m, nil
	}
	var err error
	{
		_, prevSet := prev.GetSrcMAC()
		_, nextSet := next.GetSrcMAC()
		out, err = restore("srcmac", prevSet, nextSet, func() (policy.Mods, bool) {
			v, ok := match.GetSrcMAC()
			return out.SetSrcMAC(v), ok
		})
		if err != nil {
			return out, err
		}
	}
	{
		_, prevSet := prev.GetDstMAC()
		_, nextSet := next.GetDstMAC()
		out, err = restore("dstmac", prevSet, nextSet, func() (policy.Mods, bool) {
			v, ok := match.GetDstMAC()
			return out.SetDstMAC(v), ok
		})
		if err != nil {
			return out, err
		}
	}
	{
		_, prevSet := prev.GetSrcIP()
		_, nextSet := next.GetSrcIP()
		out, err = restore("srcip", prevSet, nextSet, func() (policy.Mods, bool) {
			v, ok := match.GetSrcIP()
			if !ok || v.Bits() != 32 {
				return out, false
			}
			return out.SetSrcIPv4(v.Addr()), true
		})
		if err != nil {
			return out, err
		}
	}
	{
		_, prevSet := prev.GetDstIP()
		_, nextSet := next.GetDstIP()
		out, err = restore("dstip", prevSet, nextSet, func() (policy.Mods, bool) {
			v, ok := match.GetDstIP()
			if !ok || v.Bits() != 32 {
				return out, false
			}
			return out.SetDstIPv4(v.Addr()), true
		})
		if err != nil {
			return out, err
		}
	}
	{
		_, prevSet := prev.GetSrcPort()
		_, nextSet := next.GetSrcPort()
		out, err = restore("srcport", prevSet, nextSet, func() (policy.Mods, bool) {
			v, ok := match.GetSrcPort()
			return out.SetSrcPort(v), ok
		})
		if err != nil {
			return out, err
		}
	}
	{
		_, prevSet := prev.GetDstPort()
		_, nextSet := next.GetDstPort()
		out, err = restore("dstport", prevSet, nextSet, func() (policy.Mods, bool) {
			v, ok := match.GetDstPort()
			return out.SetDstPort(v), ok
		})
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
