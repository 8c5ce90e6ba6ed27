package policy

// compiler carries compilation state: the memo table (keyed by node
// identity, so shared subtrees compile once — the paper's §4.3 "many policy
// idioms appear more than once" optimization) and counters the evaluation
// harness reads. Compilation is sequential and a pure function of the
// policy tree.
type compiler struct {
	memo  map[Policy]Classifier
	pmemo map[Predicate]Classifier
	stats CompileStats
	opts  CompileOptions
}

// CompileOptions toggles two of the §4.3 control-plane optimizations so the
// ablation experiment can measure each one's contribution; the zero value
// enables both.
type CompileOptions struct {
	// NoMemo disables memoization of shared subtrees.
	NoMemo bool
	// NoDisjoint disables the disjoint-union fast path: every Union falls
	// back to the quadratic pairwise parallel composition.
	NoDisjoint bool
}

// CompileStats counts the composition operations performed, mirroring the
// operation counts §4.3.1 reasons about.
type CompileStats struct {
	Parallel    int // pairwise parallel compositions performed
	Sequential  int // sequential compositions performed
	DisjointCat int // parallel compositions replaced by cheap concatenation
	MemoHits    int // subtree compilations satisfied from the memo table
}

// Compile translates a policy into an equivalent complete classifier using
// default options.
func Compile(p Policy) Classifier {
	cl, _ := CompileWithOptions(p, CompileOptions{})
	return cl
}

// CompileWithOptions compiles p under the given optimization toggles and
// also returns operation counts.
func CompileWithOptions(p Policy, opts CompileOptions) (Classifier, CompileStats) {
	c := &compiler{
		memo:  make(map[Policy]Classifier),
		pmemo: make(map[Predicate]Classifier),
		opts:  opts,
	}
	cl := p.compile(c)
	return cl, c.stats
}

func (c *compiler) compilePolicy(p Policy) Classifier {
	if !c.opts.NoMemo {
		if cl, ok := c.memo[p]; ok {
			c.stats.MemoHits++
			return cl
		}
	}
	cl := p.compile(c)
	if !c.opts.NoMemo {
		c.memo[p] = cl
	}
	return cl
}

func (c *compiler) compilePredicate(p Predicate) Classifier {
	if !c.opts.NoMemo {
		if cl, ok := c.pmemo[p]; ok {
			c.stats.MemoHits++
			return cl
		}
	}
	cl := p.compilePred(c)
	if !c.opts.NoMemo {
		c.pmemo[p] = cl
	}
	return cl
}

func (t *Test) compile(*compiler) Classifier {
	return Classifier{Rules: []Rule{
		{Match: t.Match, Actions: []Mods{Identity}},
		{Match: MatchAll},
	}}
}

func (m *Mod) compile(*compiler) Classifier {
	return Classifier{Rules: []Rule{{Match: MatchAll, Actions: []Mods{m.Mods}}}}
}

func (m *Multicast) compile(*compiler) Classifier {
	mods := make([]Mods, len(m.Ports))
	for i, p := range m.Ports {
		mods[i] = Identity.SetPort(p)
	}
	return Classifier{Rules: []Rule{{Match: MatchAll, Actions: mods}}}
}

func (Drop) compile(*compiler) Classifier {
	return Classifier{Rules: []Rule{{Match: MatchAll}}}
}

func (Pass) compile(*compiler) Classifier {
	return Classifier{Rules: []Rule{{Match: MatchAll, Actions: []Mods{Identity}}}}
}

func (u *Union) compile(c *compiler) Classifier {
	if len(u.Children) == 0 {
		return Drop{}.compile(c)
	}
	out := c.compilePolicy(u.Children[0])
	var run *disjointRun // the run out heads, built when the next child needs it
	for _, ch := range u.Children[1:] {
		p := c.compilePolicy(ch)
		if !c.opts.NoDisjoint {
			if run == nil {
				run = newDisjointRun(out)
			}
			if run.disjoint(p) {
				c.stats.DisjointCat++
				run.add(p)
				continue
			}
			out, run = run.classifier(), nil
		}
		c.stats.Parallel++
		out = parallelCompose(out, p)
	}
	if run != nil {
		out = run.classifier()
	}
	return out
}

func (s *Seq) compile(c *compiler) Classifier {
	if len(s.Children) == 0 {
		return Pass{}.compile(c)
	}
	out := c.compilePolicy(s.Children[0])
	for _, ch := range s.Children[1:] {
		c.stats.Sequential++
		out = seqCompose(out, c.compilePolicy(ch))
	}
	return out
}

func (i *If) compile(c *compiler) Classifier {
	pc := c.compilePredicate(i.Pred)
	thenC := c.compilePolicy(i.Then)
	elseC := c.compilePolicy(i.Else)
	var rules []Rule
	for _, r := range pc.Rules {
		if r.IsDrop() {
			rules = append(rules, restrict(elseC, r.Match)...)
		} else {
			rules = append(rules, restrict(thenC, r.Match)...)
		}
	}
	return Classifier{Rules: dedupMatches(rules)}
}

func (p *MatchPred) compilePred(*compiler) Classifier {
	return Classifier{Rules: []Rule{
		{Match: p.Match, Actions: []Mods{Identity}},
		{Match: MatchAll},
	}}
}

func (p *OrPred) compilePred(c *compiler) Classifier {
	out := Classifier{Rules: []Rule{{Match: MatchAll}}}
	for _, ch := range p.Children {
		c.stats.Parallel++
		out = parallelCompose(out, c.compilePredicate(ch))
	}
	return out
}

func (p *AndPred) compilePred(c *compiler) Classifier {
	out := Classifier{Rules: []Rule{{Match: MatchAll, Actions: []Mods{Identity}}}}
	for _, ch := range p.Children {
		c.stats.Sequential++
		out = seqCompose(out, c.compilePredicate(ch))
	}
	return out
}

func (p *NotPred) compilePred(c *compiler) Classifier {
	inner := c.compilePredicate(p.Child)
	rules := make([]Rule, len(inner.Rules))
	for i, r := range inner.Rules {
		if r.IsDrop() {
			rules[i] = Rule{Match: r.Match, Actions: []Mods{Identity}}
		} else {
			rules[i] = Rule{Match: r.Match}
		}
	}
	return Classifier{Rules: rules}
}
