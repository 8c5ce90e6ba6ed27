package policy

import (
	"fmt"
	"sort"
	"strings"

	"sdx/internal/netutil"
)

// Rule is one prioritized entry of a classifier: packets covered by Match
// are emitted once per element of Actions (after applying its rewrites).
// An empty Actions slice drops the packet.
type Rule struct {
	Match   Match
	Actions []Mods
}

// IsDrop reports whether the rule discards matching packets.
func (r Rule) IsDrop() bool { return len(r.Actions) == 0 }

// String renders the rule as "match -> action | action" or "match -> drop".
func (r Rule) String() string {
	if r.IsDrop() {
		return r.Match.String() + " -> drop"
	}
	parts := make([]string, len(r.Actions))
	for i, a := range r.Actions {
		parts[i] = a.String()
	}
	return r.Match.String() + " -> " + strings.Join(parts, " | ")
}

// Classifier is a priority-ordered rule list; the first matching rule wins.
// Compiled classifiers are complete: the last rule matches every packet, so
// evaluation never falls off the end. Rule count is the data-plane state
// metric the paper's Figures 7 and 9 measure.
type Classifier struct {
	Rules []Rule
}

// Eval runs pkt through the classifier and returns the emitted packets.
func (c Classifier) Eval(pkt Packet) []Packet {
	for _, r := range c.Rules {
		if !r.Match.Covers(pkt) {
			continue
		}
		out := make([]Packet, 0, len(r.Actions))
		seen := make(map[Packet]bool, len(r.Actions))
		for _, a := range r.Actions {
			q := a.Apply(pkt)
			if !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
		return out
	}
	return nil
}

// Len returns the number of rules.
func (c Classifier) Len() int { return len(c.Rules) }

// NonDropLen returns the number of rules with at least one action — the
// count that must occupy switch TCAM space (the trailing drop regions
// collapse into the table-miss entry on a real switch).
func (c Classifier) NonDropLen() int {
	n := 0
	for _, r := range c.Rules {
		if !r.IsDrop() {
			n++
		}
	}
	return n
}

// String renders one rule per line, highest priority first.
func (c Classifier) String() string {
	var b strings.Builder
	for i, r := range c.Rules {
		fmt.Fprintf(&b, "%4d: %s\n", len(c.Rules)-i, r)
	}
	return b.String()
}

// sortedActions canonicalizes an action set: duplicates removed, order
// fixed, so that equal sets compare equal in tests and memoization.
func sortedActions(as []Mods) []Mods {
	if len(as) <= 1 {
		return as
	}
	seen := make(map[Mods]bool, len(as))
	out := make([]Mods, 0, len(as))
	for _, a := range as {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func unionActions(a, b []Mods) []Mods {
	merged := make([]Mods, 0, len(a)+len(b))
	merged = append(merged, a...)
	merged = append(merged, b...)
	return sortedActions(merged)
}

// dedupMatches removes rules whose exact match already appeared earlier
// (they are unreachable) in O(n) using Match comparability.
func dedupMatches(rules []Rule) []Rule {
	seen := make(map[Match]bool, len(rules))
	out := rules[:0]
	for _, r := range rules {
		if seen[r.Match] {
			continue
		}
		seen[r.Match] = true
		out = append(out, r)
	}
	return out
}

// parallelCompose implements the "+" operator on classifiers: the result
// emits, for each packet, the union of what a and b emit. Pairwise match
// intersections are ordered lexicographically by (i, j); a packet whose
// first matches are rule i of a and rule j of b hits exactly the (i, j)
// intersection first (any earlier pair would need an earlier first match in
// one of the inputs).
func parallelCompose(a, b Classifier) Classifier {
	rules := make([]Rule, 0, len(a.Rules)+len(b.Rules))
	for _, ra := range a.Rules {
		for _, rb := range b.Rules {
			m, ok := ra.Match.Intersect(rb.Match)
			if !ok {
				continue
			}
			rules = append(rules, Rule{Match: m, Actions: unionActions(ra.Actions, rb.Actions)})
		}
	}
	return Classifier{Rules: dedupMatches(rules)}
}

// disjointRun implements "+" over a run of classifiers known to match
// disjoint flow spaces (the paper's §4.3 "most SDX policies are disjoint"
// optimization): their rules can simply be concatenated, skipping the
// quadratic pairwise intersection. Each member's trailing drop run (its
// completion catch-alls) is stripped, and one catch-all drop restores
// completeness when the run is materialised. Soundness requires every
// non-drop rule of a member to sit in a flow space disjoint from every
// non-drop rule before it; the SDX compiler guarantees this by construction
// because isolated policies differ on the port field.
//
// The run grows in place: admitting a member costs time in the member's
// size and in the run's rules on the member's ports, not in the whole run.
// Rules are deduplicated as they arrive, and the surviving non-drop rules
// are indexed by ingress port. The index is exact: two matches that
// constrain the port to different values are disjoint, so a rule on port p
// can overlap only the indexed rules on port p and the port-less ones.
type disjointRun struct {
	head   Classifier // the first member, returned as is if no other joins
	joined bool       // a second member has been added
	rules  []Rule
	seen   map[Match]bool
	byPort map[uint16][]int // positions in rules of the non-drop rules on each port
	wild   []int            // positions in rules of the port-less non-drop rules
}

func newDisjointRun(head Classifier) *disjointRun {
	r := &disjointRun{
		head:   head,
		rules:  make([]Rule, 0, len(head.Rules)),
		seen:   make(map[Match]bool, len(head.Rules)),
		byPort: make(map[uint16][]int),
	}
	r.append(head.Rules)
	return r
}

// disjoint reports whether every non-drop rule of cl is disjoint from every
// non-drop rule of the run, the precondition for adding cl.
func (r *disjointRun) disjoint(cl Classifier) bool {
	for _, rb := range cl.Rules {
		if rb.IsDrop() {
			continue
		}
		if port, ok := rb.Match.GetPort(); ok {
			if !r.disjointAt(rb.Match, r.byPort[port]) || !r.disjointAt(rb.Match, r.wild) {
				return false
			}
			continue
		}
		for _, ra := range r.rules {
			if !ra.IsDrop() && !ra.Match.Disjoint(rb.Match) {
				return false
			}
		}
	}
	return true
}

func (r *disjointRun) disjointAt(m Match, positions []int) bool {
	for _, i := range positions {
		if !r.rules[i].Match.Disjoint(m) {
			return false
		}
	}
	return true
}

// add appends cl, which must be disjoint from the run. The run's own
// trailing drop run is stripped first, as every member's is; the catch-all
// that stands in for it is appended once, by classifier.
func (r *disjointRun) add(cl Classifier) {
	for n := len(r.rules); n > 0 && r.rules[n-1].IsDrop(); n-- {
		delete(r.seen, r.rules[n-1].Match)
		r.rules = r.rules[:n-1]
	}
	r.joined = true
	r.append(cl.Rules)
}

// append adds the rules before the trailing drop run whose exact match has
// not appeared earlier in the run (the rest are unreachable).
func (r *disjointRun) append(rules []Rule) {
	for _, rule := range stripTail(rules) {
		if r.seen[rule.Match] {
			continue
		}
		r.seen[rule.Match] = true
		if !rule.IsDrop() {
			if port, ok := rule.Match.GetPort(); ok {
				r.byPort[port] = append(r.byPort[port], len(r.rules))
			} else {
				r.wild = append(r.wild, len(r.rules))
			}
		}
		r.rules = append(r.rules, rule)
	}
}

// classifier materialises the run: its rules followed by the catch-all
// drop, unless a catch-all match is already among them.
func (r *disjointRun) classifier() Classifier {
	if !r.joined {
		return r.head
	}
	if !r.seen[MatchAll] {
		r.rules = append(r.rules, Rule{Match: MatchAll})
	}
	return Classifier{Rules: r.rules}
}

// stripTail returns rules without the trailing run of drop rules. Interior
// drops are kept: they can shadow later rules and are semantically
// significant.
func stripTail(rules []Rule) []Rule {
	end := len(rules)
	for end > 0 && rules[end-1].IsDrop() {
		end--
	}
	return rules[:end]
}

// pullback computes the ingress-side match for sequentially composing one
// (m1, action) pair with a downstream rule match m2: the set of packets in
// m1 whose image under the action's rewrites lands in m2. ok is false when
// that set is empty.
func pullback(m1 Match, a Mods, m2 Match) (Match, bool) {
	need := m2
	for f := Field(0); f < numFields; f++ {
		if !a.has(f) {
			continue
		}
		if !m2.acceptsMod(a, f) {
			return Match{}, false // rewrite forces the field outside m2
		}
		need = need.without(f) // rewrite satisfies m2; no ingress constraint
	}
	return m1.Intersect(need)
}

// seqIndexMin is the size |a|·|b| from which seqCompose indexes b: the
// measured crossover on SDX-shaped compositions. Below it, building the map
// costs as much as the pullbacks it saves or more (about 20 % more at 1 × 2
// and 2 × 3); from about 150 the index wins, by half at 53 × 84. Nearly
// every composition in a compile, background or quick stage, is under 16,
// so indexing those would be pure overhead.
const seqIndexMin = 128

// seqCompose implements the ">>" operator: packets flow through a, and each
// emitted packet flows through b. Both inputs must be complete classifiers;
// the result is complete.
func seqCompose(a, b Classifier) Classifier {
	var idx seqIndex
	if len(a.Rules)*len(b.Rules) >= seqIndexMin {
		idx = newSeqIndex(b)
	}
	return seqComposeWith(a, b, idx)
}

// seqComposeWith is seqCompose pulling back, for each left action, only the
// rules of b that idx.lookup names, and every rule of b when idx is nil or
// the packet's port or dst MAC is unknown.
func seqComposeWith(a, b Classifier, idx seqIndex) Classifier {
	var rules []Rule
	var cand []int
	for _, ra := range a.Rules {
		if ra.IsDrop() {
			rules = append(rules, ra)
			continue
		}
		// For each action of ra, pull b back through the rewrite to get a
		// partition of ra's region; then union the per-action partitions so
		// multicast outputs accumulate.
		block := Classifier{}
		for k, act := range ra.Actions {
			var part []Rule
			var indexed bool
			cand, indexed = idx.lookup(cand[:0], ra.Match, act)
			if indexed {
				for _, j := range cand {
					part = appendPullback(part, &ra.Match, act, &b.Rules[j])
				}
			} else {
				for j := range b.Rules {
					part = appendPullback(part, &ra.Match, act, &b.Rules[j])
				}
			}
			pc := Classifier{Rules: dedupMatches(part)}
			if k == 0 {
				block = pc
			} else {
				block = parallelCompose(block, pc)
			}
		}
		rules = append(rules, block.Rules...)
	}
	return Classifier{Rules: dedupMatches(rules)}
}

// appendPullback appends to part the packets of m that act sends into rb,
// with act followed by each of rb's actions, unless there are none.
func appendPullback(part []Rule, m *Match, act Mods, rb *Rule) []Rule {
	pm, ok := pullback(*m, act, rb.Match)
	if !ok {
		return part
	}
	acts := make([]Mods, 0, len(rb.Actions))
	for _, a2 := range rb.Actions {
		acts = append(acts, act.Then(a2))
	}
	return append(part, Rule{Match: pm, Actions: sortedActions(acts)})
}

// seqIndex files a classifier's rule positions by their port and dst MAC
// constraints, in four kinds of bucket: exact port and exact dst MAC, exact
// port only, exact dst MAC only, neither (§4.3.1: after fwd(p) a packet can
// only meet rules guarded by port p). Each list is ascending. The index is
// exact: a rule that fixes the port or the dst MAC to another value than
// the packet's fails pullback, through acceptsMod when the action rewrites
// that field and through Intersect when the left match fixes it.
type seqIndex map[seqKey][]int

// seqKey is a match's port and dst MAC constraints; an unconstrained field
// is zero, as in Match itself.
type seqKey struct {
	set  uint16 // the match's set bits for FPort and FDstMAC
	port uint16
	mac  netutil.MAC
}

const seqKeyFields = 1<<FPort | 1<<FDstMAC

func newSeqIndex(b Classifier) seqIndex {
	x := make(seqIndex)
	for j := range b.Rules {
		m := &b.Rules[j].Match
		k := seqKey{m.set & seqKeyFields, m.port, m.dstMAC}
		x[k] = append(x[k], j)
	}
	return x
}

// lookup appends to buf, in ascending order, the positions of the rules a
// packet in m can reach after act's rewrites. ok is false, and every rule
// must be scanned, when x is nil or the packet's port or dst MAC is unknown.
// The ascending order is b's first-match order, which seqCompose keeps.
func (x seqIndex) lookup(buf []int, m Match, act Mods) ([]int, bool) {
	if x == nil {
		return buf, false
	}
	port, ok := act.GetPort()
	if !ok {
		port, ok = m.GetPort()
	}
	mac, okMAC := act.GetDstMAC()
	if !okMAC {
		mac, okMAC = m.GetDstMAC()
	}
	if !ok || !okMAC {
		return buf, false
	}
	buf = append(buf, x[seqKey{seqKeyFields, port, mac}]...)
	buf = append(buf, x[seqKey{1 << FPort, port, netutil.MAC{}}]...)
	buf = append(buf, x[seqKey{1 << FDstMAC, 0, mac}]...)
	buf = append(buf, x[seqKey{}]...)
	sort.Ints(buf)
	return buf, true
}

// restrict narrows every rule of c to the region m, dropping rules that
// become unsatisfiable. Used by If compilation.
func restrict(c Classifier, m Match) []Rule {
	out := make([]Rule, 0, len(c.Rules))
	for _, r := range c.Rules {
		rm, ok := r.Match.Intersect(m)
		if !ok {
			continue
		}
		out = append(out, Rule{Match: rm, Actions: r.Actions})
	}
	return out
}
