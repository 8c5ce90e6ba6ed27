package policy

import "fmt"

// Fallback routes each packet through Primary; packets that Primary drops
// (produces no output for) follow Default instead. This is the paper's
// "overriding default BGP routes" construction — if_(matches(P_A), P_A,
// def_A) — computed exactly: the compiler replaces the drop regions of
// Primary's classifier with Default's behaviour, so no conservative
// approximation of "matches(P_A)" is needed. For drop-free participant
// policies the two formulations coincide.
type Fallback struct {
	Primary Policy
	Default Policy
}

// WithDefault wraps primary so unmatched traffic follows def.
func WithDefault(primary, def Policy) *Fallback {
	return &Fallback{Primary: primary, Default: def}
}

// Eval implements Policy.
func (f *Fallback) Eval(pkt Packet) []Packet {
	if out := f.Primary.Eval(pkt); len(out) > 0 {
		return out
	}
	return f.Default.Eval(pkt)
}

func (f *Fallback) String() string {
	return fmt.Sprintf("(%s) else (%s)", f.Primary, f.Default)
}

func (f *Fallback) compile(c *compiler) Classifier {
	prim := c.compilePolicy(f.Primary)
	def := c.compilePolicy(f.Default)
	var rules []Rule
	// The primary's trailing drop run jointly covers "everything else", so
	// one full copy of the default at the end serves it; only interior
	// drop regions need region-restricted copies. This keeps the default
	// table shared rather than duplicated per primary region.
	for _, r := range stripTail(prim.Rules) {
		if r.IsDrop() {
			rules = append(rules, restrict(def, r.Match)...)
			continue
		}
		rules = append(rules, r)
	}
	rules = append(rules, def.Rules...)
	return Classifier{Rules: dedupMatches(rules)}
}
