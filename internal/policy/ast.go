package policy

import (
	"fmt"
	"sort"
	"strings"
)

// Policy is a node of the policy algebra. A policy maps a located packet to
// a set of located packets: the empty set drops, a singleton forwards, a
// larger set multicasts. Eval gives the denotational semantics directly;
// Compile produces an equivalent Classifier. The compiler memoizes by node
// identity, so callers that reuse subtrees (as the SDX controller does when
// the same participant policy appears several times in the global
// composition) get the paper's §4.3 memoization for free.
type Policy interface {
	// Eval applies the policy to one located packet.
	Eval(pkt Packet) []Packet
	// String renders the policy in the paper's surface syntax.
	String() string

	compile(c *compiler) Classifier
}

// Test filters packets by a Match: matching packets pass unchanged, others
// are dropped. It is the language's match(...) predicate.
type Test struct {
	Match Match
}

// MatchPolicy returns the filter policy for m.
func MatchPolicy(m Match) *Test { return &Test{Match: m} }

// Eval implements Policy.
func (t *Test) Eval(pkt Packet) []Packet {
	if t.Match.Covers(pkt) {
		return []Packet{pkt}
	}
	return nil
}

func (t *Test) String() string { return fmt.Sprintf("match(%s)", t.Match) }

// Mod rewrites header fields and/or the packet location. fwd(port) is
// Mod{Mods: Identity.SetPort(port)}.
type Mod struct {
	Mods Mods
}

// Fwd returns the policy that forwards packets to the given location.
func Fwd(port uint16) *Mod { return &Mod{Mods: Identity.SetPort(port)} }

// ModPolicy returns the rewrite policy for mods.
func ModPolicy(mods Mods) *Mod { return &Mod{Mods: mods} }

// Eval implements Policy.
func (m *Mod) Eval(pkt Packet) []Packet { return []Packet{m.Mods.Apply(pkt)} }

func (m *Mod) String() string {
	if p, ok := m.Mods.GetPort(); ok && m.Mods == Identity.SetPort(p) {
		return fmt.Sprintf("fwd(%d)", p)
	}
	return fmt.Sprintf("mod(%s)", m.Mods)
}

// Multicast replicates a packet to a fixed set of locations — the
// language's group-membership construct, equivalent to Par(Fwd(p) for p in
// Ports) but compiled as one multi-copy rule, which the OpenFlow lowering
// collapses into a single group replication action (rendered once, emitted
// in ascending port order).
type Multicast struct {
	Ports []uint16 // ascending, deduplicated (MulticastTo guarantees both)
}

// MulticastTo builds the replication policy for the given locations,
// sorting and deduplicating them. No ports is equivalent to Drop; one port
// is plain forwarding.
func MulticastTo(ports ...uint16) Policy {
	sorted := append([]uint16(nil), ports...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	uniq := sorted[:0]
	for i, p := range sorted {
		if i == 0 || p != sorted[i-1] {
			uniq = append(uniq, p)
		}
	}
	switch len(uniq) {
	case 0:
		return Drop{}
	case 1:
		return Fwd(uniq[0])
	}
	return &Multicast{Ports: uniq}
}

// Eval implements Policy.
func (m *Multicast) Eval(pkt Packet) []Packet {
	out := make([]Packet, len(m.Ports))
	for i, p := range m.Ports {
		out[i] = Identity.SetPort(p).Apply(pkt)
	}
	return out
}

func (m *Multicast) String() string {
	parts := make([]string, len(m.Ports))
	for i, p := range m.Ports {
		parts[i] = fmt.Sprintf("%d", p)
	}
	return "multicast(" + strings.Join(parts, ", ") + ")"
}

// Drop discards every packet.
type Drop struct{}

// Eval implements Policy.
func (Drop) Eval(Packet) []Packet { return nil }

func (Drop) String() string { return "drop" }

// Pass forwards every packet unchanged (Pyretic's identity).
type Pass struct{}

// Eval implements Policy.
func (Pass) Eval(pkt Packet) []Packet { return []Packet{pkt} }

func (Pass) String() string { return "identity" }

// Union is parallel composition (the paper's "+"): it applies every child
// to the packet and unions the outputs.
type Union struct {
	Children []Policy
}

// Par builds the parallel composition of ps, flattening nested unions.
// With no children it is equivalent to Drop.
func Par(ps ...Policy) Policy {
	var flat []Policy
	for _, p := range ps {
		switch v := p.(type) {
		case *Union:
			flat = append(flat, v.Children...)
		case Drop:
			// dropped branch contributes nothing
		default:
			flat = append(flat, p)
		}
	}
	switch len(flat) {
	case 0:
		return Drop{}
	case 1:
		return flat[0]
	}
	return &Union{Children: flat}
}

// Eval implements Policy.
func (u *Union) Eval(pkt Packet) []Packet {
	var out []Packet
	seen := make(map[Packet]bool)
	for _, c := range u.Children {
		for _, p := range c.Eval(pkt) {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

func (u *Union) String() string { return joinPolicies(u.Children, " + ") }

// Seq is sequential composition (the paper's ">>"): the output packets of
// each stage feed the next.
type Seq struct {
	Children []Policy
}

// SeqOf builds the sequential composition of ps, flattening nested
// sequences. With no children it is equivalent to Pass.
func SeqOf(ps ...Policy) Policy {
	var flat []Policy
	for _, p := range ps {
		switch v := p.(type) {
		case *Seq:
			flat = append(flat, v.Children...)
		case Pass:
			// identity stage is a no-op
		default:
			flat = append(flat, p)
		}
	}
	switch len(flat) {
	case 0:
		return Pass{}
	case 1:
		return flat[0]
	}
	return &Seq{Children: flat}
}

// Eval implements Policy.
func (s *Seq) Eval(pkt Packet) []Packet {
	cur := []Packet{pkt}
	for _, c := range s.Children {
		var next []Packet
		seen := make(map[Packet]bool)
		for _, p := range cur {
			for _, q := range c.Eval(p) {
				if !seen[q] {
					seen[q] = true
					next = append(next, q)
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

func (s *Seq) String() string { return joinPolicies(s.Children, " >> ") }

// If routes packets matching the predicate through Then and all others
// through Else (Pyretic's if_ operator, which the SDX runtime uses to fall
// back to default BGP forwarding).
type If struct {
	Pred Predicate
	Then Policy
	Else Policy
}

// IfThenElse builds an If node.
func IfThenElse(pred Predicate, then, els Policy) *If {
	return &If{Pred: pred, Then: then, Else: els}
}

// Eval implements Policy.
func (i *If) Eval(pkt Packet) []Packet {
	if i.Pred.Matches(pkt) {
		return i.Then.Eval(pkt)
	}
	return i.Else.Eval(pkt)
}

// String renders in Parse's syntax, as every node Parse builds does, so a
// parsed policy's rendering parses back to the same policy.
func (i *If) String() string {
	return fmt.Sprintf("if(%s, %s, %s)", i.Pred, i.Then, i.Else)
}

func joinPolicies(ps []Policy, sep string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = "(" + p.String() + ")"
	}
	return strings.Join(parts, sep)
}

// Predicate is a boolean condition over located packets, used by If. It is
// kept separate from Policy so that predicates can be complemented without
// computing set differences of action outputs.
type Predicate interface {
	Matches(pkt Packet) bool
	String() string

	// compilePred compiles to a complete classifier whose rules carry
	// either the identity action (predicate true) or no action (false).
	compilePred(c *compiler) Classifier
}

// MatchPred is the atomic predicate: true iff the Match covers the packet.
type MatchPred struct {
	Match Match
}

// Matches implements Predicate.
func (p *MatchPred) Matches(pkt Packet) bool { return p.Match.Covers(pkt) }

func (p *MatchPred) String() string { return fmt.Sprintf("match(%s)", p.Match) }

// OrPred is predicate disjunction.
type OrPred struct {
	Children []Predicate
}

// AnyOf builds the disjunction of preds.
func AnyOf(preds ...Predicate) Predicate {
	var flat []Predicate
	for _, p := range preds {
		if o, ok := p.(*OrPred); ok {
			flat = append(flat, o.Children...)
			continue
		}
		flat = append(flat, p)
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &OrPred{Children: flat}
}

// Matches implements Predicate.
func (p *OrPred) Matches(pkt Packet) bool {
	for _, c := range p.Children {
		if c.Matches(pkt) {
			return true
		}
	}
	return false
}

func (p *OrPred) String() string {
	parts := make([]string, len(p.Children))
	for i, c := range p.Children {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, " + ") + ")"
}

// AndPred is predicate conjunction.
type AndPred struct {
	Children []Predicate
}

// AllOf builds the conjunction of preds.
func AllOf(preds ...Predicate) Predicate {
	var flat []Predicate
	for _, p := range preds {
		if a, ok := p.(*AndPred); ok {
			flat = append(flat, a.Children...)
			continue
		}
		flat = append(flat, p)
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &AndPred{Children: flat}
}

// Matches implements Predicate.
func (p *AndPred) Matches(pkt Packet) bool {
	for _, c := range p.Children {
		if !c.Matches(pkt) {
			return false
		}
	}
	return true
}

func (p *AndPred) String() string {
	parts := make([]string, len(p.Children))
	for i, c := range p.Children {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, " >> ") + ")"
}

// NotPred is predicate negation.
type NotPred struct {
	Child Predicate
}

// Not complements pred.
func Not(pred Predicate) Predicate {
	if n, ok := pred.(*NotPred); ok {
		return n.Child
	}
	return &NotPred{Child: pred}
}

// Matches implements Predicate.
func (p *NotPred) Matches(pkt Packet) bool { return !p.Child.Matches(pkt) }

func (p *NotPred) String() string { return "~" + p.Child.String() }
