package netutil

import (
	"net/netip"
	"strings"
)

// PrefixSet is an immutable-after-build set of IPv4 prefixes with value
// semantics suitable for use as FEC membership inputs. Unlike a Trie it
// answers exact membership, not containment: the SDX policy pipeline treats
// each advertised prefix as an opaque unit, exactly as the paper's
// equivalence-class construction does.
type PrefixSet struct {
	m map[netip.Prefix]struct{}
}

// NewPrefixSet builds a set from the given prefixes (masked to canonical
// form).
func NewPrefixSet(ps ...netip.Prefix) *PrefixSet {
	s := &PrefixSet{m: make(map[netip.Prefix]struct{}, len(ps))}
	for _, p := range ps {
		s.m[p.Masked()] = struct{}{}
	}
	return s
}

// Add inserts p.
func (s *PrefixSet) Add(p netip.Prefix) { s.m[p.Masked()] = struct{}{} }

// Remove deletes p.
func (s *PrefixSet) Remove(p netip.Prefix) { delete(s.m, p.Masked()) }

// Contains reports exact membership of p.
func (s *PrefixSet) Contains(p netip.Prefix) bool {
	if s == nil {
		return false
	}
	_, ok := s.m[p.Masked()]
	return ok
}

// Len returns the number of member prefixes.
func (s *PrefixSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.m)
}

// Prefixes returns the members in canonical sorted order.
func (s *PrefixSet) Prefixes() []netip.Prefix {
	if s == nil {
		return nil
	}
	out := make([]netip.Prefix, 0, len(s.m))
	for p := range s.m {
		out = append(out, p)
	}
	SortPrefixes(out)
	return out
}

// Each calls fn for every member, in no particular order: for callers that
// only collect the members, which Prefixes would sort first.
func (s *PrefixSet) Each(fn func(netip.Prefix)) {
	if s == nil {
		return
	}
	for p := range s.m {
		fn(p)
	}
}

// Intersect returns the members present in both sets.
func (s *PrefixSet) Intersect(o *PrefixSet) *PrefixSet {
	out := NewPrefixSet()
	if s == nil || o == nil {
		return out
	}
	small, big := s, o
	if big.Len() < small.Len() {
		small, big = big, small
	}
	for p := range small.m {
		if big.Contains(p) {
			out.Add(p)
		}
	}
	return out
}

// Union returns the members present in either set.
func (s *PrefixSet) Union(o *PrefixSet) *PrefixSet {
	out := NewPrefixSet()
	if s != nil {
		for p := range s.m {
			out.Add(p)
		}
	}
	if o != nil {
		for p := range o.m {
			out.Add(p)
		}
	}
	return out
}

// String renders the sorted members, for debugging and golden tests.
func (s *PrefixSet) String() string {
	ps := s.Prefixes()
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
