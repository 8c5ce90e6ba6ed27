package policy

import (
	"fmt"
	"sort"
	"strings"
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

// concatDisjoint implements "+" for classifiers known to match disjoint
// flow spaces (the paper's §4.3 "most SDX policies are disjoint"
// optimization): the rules can simply be concatenated, skipping the
// quadratic pairwise intersection. Each input's trailing drop run (its
// completion catch-alls) is stripped and a single catch-all drop restores
// completeness. Soundness requires every non-drop rule of a and b to sit
// in disjoint flow spaces; the SDX compiler guarantees this by
// construction because isolated policies differ on the port field.
func concatDisjoint(a, b Classifier) Classifier {
	rules := make([]Rule, 0, len(a.Rules)+len(b.Rules)+1)
	rules = append(rules, stripTail(a.Rules)...)
	rules = append(rules, stripTail(b.Rules)...)
	rules = append(rules, Rule{Match: MatchAll})
	return Classifier{Rules: dedupMatches(rules)}
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

// seqCompose implements the ">>" operator: packets flow through a, and each
// emitted packet flows through b. Both inputs must be complete classifiers;
// the result is complete.
func seqCompose(a, b Classifier) Classifier {
	var rules []Rule
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
			for _, rb := range b.Rules {
				m, ok := pullback(ra.Match, act, rb.Match)
				if !ok {
					continue
				}
				acts := make([]Mods, 0, len(rb.Actions))
				for _, a2 := range rb.Actions {
					acts = append(acts, act.Then(a2))
				}
				part = append(part, Rule{Match: m, Actions: sortedActions(acts)})
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
