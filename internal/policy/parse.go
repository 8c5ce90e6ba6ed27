package policy

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"unicode"

	"sdx/internal/netutil"
)

// Parse reads a policy in the paper's surface syntax:
//
//	(match(dstport=80) >> fwd(B)) + (match(dstport=443) >> fwd(C))
//	match(dstip=74.125.1.1/32) >> mod(dstip=74.125.224.161) >> fwd(B1)
//	if(match(srcip=204.57.0.67/32), fwd(I2), fwd(I1))
//
// Grammar (">>" binds tighter than "+", parentheses group):
//
//	policy := seq ("+" seq)*
//	seq    := atom (">>" atom)*
//	atom   := "(" policy ")" | "match" "(" fields ")" | "mod" "(" fields ")"
//	        | "fwd" "(" IDENT ")" | "if" "(" policy "," policy "," policy ")"
//	        | "drop" | "identity"
//
// Match/mod fields: srcip, dstip (IPv4 only: CIDR for match, address for
// mod), srcmac, dstmac, ethtype, proto, srcport, dstport. fwd(NAME)
// substitutes the policy bound to NAME in symbols — the SDX controller binds
// participant names to virtual-switch forwards and port names to
// deliveries, so the same surface syntax covers outbound fwd(B) and inbound
// fwd(B1). The predicate of if() must be a pure filter (match expressions
// combined with + and >>).
func Parse(src string, symbols map[string]Policy) (Policy, error) {
	// Accept the String() rendering of Mods, which writes ":=" for
	// assignments; a ":=" sequence cannot occur inside any valid value.
	src = strings.ReplaceAll(src, ":=", "=")
	p := &parser{lex: newLexer(src), symbols: symbols}
	pol, err := p.parsePolicy()
	if err != nil {
		return nil, err
	}
	if tok := p.lex.next(); tok.kind != tokEOF {
		return nil, fmt.Errorf("policy: unexpected %q after policy", tok.text)
	}
	return pol, nil
}

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokErr
	tokIdent
	tokValue // number, ip, cidr, mac — disambiguated by the field
	tokLParen
	tokRParen
	tokComma
	tokEquals
	tokPlus
	tokSeq // ">>"
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src    string
	pos    int
	peeked *token
}

func newLexer(src string) *lexer { return &lexer{src: src} }

func (l *lexer) peek() token {
	if l.peeked == nil {
		t := l.scan()
		l.peeked = &t
	}
	return *l.peeked
}

func (l *lexer) next() token {
	if l.peeked != nil {
		t := *l.peeked
		l.peeked = nil
		return t
	}
	return l.scan()
}

func (l *lexer) scan() token {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}
	}
	switch c := l.src[l.pos]; {
	case c == '(':
		l.pos++
		return token{kind: tokLParen, text: "(", pos: start}
	case c == ')':
		l.pos++
		return token{kind: tokRParen, text: ")", pos: start}
	case c == ',':
		l.pos++
		return token{kind: tokComma, text: ",", pos: start}
	case c == '=':
		l.pos++
		return token{kind: tokEquals, text: "=", pos: start}
	case c == '+':
		l.pos++
		return token{kind: tokPlus, text: "+", pos: start}
	case c == '>':
		if strings.HasPrefix(l.src[l.pos:], ">>") {
			l.pos += 2
			return token{kind: tokSeq, text: ">>", pos: start}
		}
		l.pos++
		return token{kind: tokErr, text: ">", pos: start}
	default:
		// identifiers and values: letters, digits, dots, colons, slashes,
		// hex — a single token class; the consumer decides the type.
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			if c == '(' || c == ')' || c == ',' || c == '=' || c == '+' ||
				c == '>' || unicode.IsSpace(rune(c)) {
				break
			}
			l.pos++
		}
		text := l.src[start:l.pos]
		kind := tokIdent
		if !unicode.IsLetter(rune(text[0])) || strings.ContainsAny(text, ".:/") {
			kind = tokValue
		}
		return token{kind: kind, text: text, pos: start}
	}
}

type parser struct {
	lex     *lexer
	symbols map[string]Policy
}

func (p *parser) parsePolicy() (Policy, error) {
	first, err := p.parseSeq()
	if err != nil {
		return nil, err
	}
	parts := []Policy{first}
	for p.lex.peek().kind == tokPlus {
		p.lex.next()
		next, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return Par(parts...), nil
}

func (p *parser) parseSeq() (Policy, error) {
	first, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	parts := []Policy{first}
	for p.lex.peek().kind == tokSeq {
		p.lex.next()
		next, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return SeqOf(parts...), nil
}

func (p *parser) parseAtom() (Policy, error) {
	tok := p.lex.next()
	switch tok.kind {
	case tokLParen:
		inner, err := p.parsePolicy()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	case tokIdent:
		switch tok.text {
		case "match":
			m, err := p.parseMatchArgs()
			if err != nil {
				return nil, err
			}
			return MatchPolicy(m), nil
		case "mod":
			mods, err := p.parseModArgs()
			if err != nil {
				return nil, err
			}
			return ModPolicy(mods), nil
		case "fwd":
			if err := p.expect(tokLParen, "("); err != nil {
				return nil, err
			}
			name := p.lex.next()
			if name.kind != tokIdent && name.kind != tokValue {
				return nil, fmt.Errorf("policy: fwd() needs a name at %d", name.pos)
			}
			if err := p.expect(tokRParen, ")"); err != nil {
				return nil, err
			}
			target, ok := p.symbols[name.text]
			if !ok {
				return nil, fmt.Errorf("policy: fwd(%s): unknown name", name.text)
			}
			return target, nil
		case "if":
			return p.parseIf()
		case "drop":
			return Drop{}, nil
		case "identity":
			return Pass{}, nil
		}
		return nil, fmt.Errorf("policy: unknown operator %q at %d", tok.text, tok.pos)
	}
	return nil, fmt.Errorf("policy: unexpected %q at %d", tok.text, tok.pos)
}

func (p *parser) parseIf() (Policy, error) {
	if err := p.expect(tokLParen, "("); err != nil {
		return nil, err
	}
	pred, err := p.parsePolicy()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokComma, ","); err != nil {
		return nil, err
	}
	then, err := p.parsePolicy()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokComma, ","); err != nil {
		return nil, err
	}
	els, err := p.parsePolicy()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	predicate, err := policyToPredicate(pred)
	if err != nil {
		return nil, err
	}
	return IfThenElse(predicate, then, els), nil
}

// policyToPredicate converts a filter-shaped policy (matches combined with
// + and >>) to a Predicate for if().
func policyToPredicate(pol Policy) (Predicate, error) {
	switch v := pol.(type) {
	case *Test:
		return &MatchPred{Match: v.Match}, nil
	case *Union:
		preds := make([]Predicate, len(v.Children))
		for i, ch := range v.Children {
			p, err := policyToPredicate(ch)
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
		return AnyOf(preds...), nil
	case *Seq:
		preds := make([]Predicate, len(v.Children))
		for i, ch := range v.Children {
			p, err := policyToPredicate(ch)
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
		return AllOf(preds...), nil
	default:
		return nil, fmt.Errorf("policy: if() predicate must be built from match expressions, got %s", pol)
	}
}

func (p *parser) expect(kind tokKind, what string) error {
	tok := p.lex.next()
	if tok.kind != kind {
		return fmt.Errorf("policy: expected %q at %d, got %q", what, tok.pos, tok.text)
	}
	return nil
}

func (p *parser) parseFieldList() (map[string]string, error) {
	if err := p.expect(tokLParen, "("); err != nil {
		return nil, err
	}
	fields := make(map[string]string)
	if p.lex.peek().kind == tokRParen {
		p.lex.next()
		return fields, nil
	}
	// match(*) and mod(id) are the String() renderings of the wildcard
	// match and identity rewrite.
	if tok := p.lex.peek(); tok.text == "*" || tok.text == "id" {
		p.lex.next()
		if err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return fields, nil
	}
	for {
		key := p.lex.next()
		if key.kind != tokIdent {
			return nil, fmt.Errorf("policy: expected field name at %d, got %q", key.pos, key.text)
		}
		if err := p.expect(tokEquals, "="); err != nil {
			return nil, err
		}
		val := p.lex.next()
		if val.kind != tokValue && val.kind != tokIdent {
			return nil, fmt.Errorf("policy: expected value at %d, got %q", val.pos, val.text)
		}
		if _, dup := fields[key.text]; dup {
			return nil, fmt.Errorf("policy: duplicate field %q", key.text)
		}
		fields[key.text] = val.text
		switch tok := p.lex.next(); tok.kind {
		case tokComma:
		case tokRParen:
			return fields, nil
		default:
			return nil, fmt.Errorf("policy: expected ',' or ')' at %d, got %q", tok.pos, tok.text)
		}
	}
}

func (p *parser) parseMatchArgs() (Match, error) {
	fields, err := p.parseFieldList()
	if err != nil {
		return Match{}, err
	}
	m := MatchAll
	for k, v := range fields {
		switch k {
		case "srcip":
			pfx, err := parsePrefixOrHost(v)
			if err != nil {
				return m, fmt.Errorf("policy: srcip: %w", err)
			}
			m = m.SrcIP(pfx)
		case "dstip":
			pfx, err := parsePrefixOrHost(v)
			if err != nil {
				return m, fmt.Errorf("policy: dstip: %w", err)
			}
			m = m.DstIP(pfx)
		case "srcmac":
			mac, err := netutil.ParseMAC(v)
			if err != nil {
				return m, err
			}
			m = m.SrcMAC(mac)
		case "dstmac":
			mac, err := netutil.ParseMAC(v)
			if err != nil {
				return m, err
			}
			m = m.DstMAC(mac)
		case "ethtype":
			n, err := parseUint(v, 16)
			if err != nil {
				return m, fmt.Errorf("policy: ethtype: %w", err)
			}
			m = m.EthType(uint16(n))
		case "proto":
			n, err := parseUint(v, 8)
			if err != nil {
				return m, fmt.Errorf("policy: proto: %w", err)
			}
			m = m.Proto(uint8(n))
		case "srcport":
			n, err := parseUint(v, 16)
			if err != nil {
				return m, fmt.Errorf("policy: srcport: %w", err)
			}
			m = m.SrcPort(uint16(n))
		case "dstport":
			n, err := parseUint(v, 16)
			if err != nil {
				return m, fmt.Errorf("policy: dstport: %w", err)
			}
			m = m.DstPort(uint16(n))
		default:
			return m, fmt.Errorf("policy: unknown match field %q", k)
		}
	}
	return m, nil
}

func (p *parser) parseModArgs() (Mods, error) {
	fields, err := p.parseFieldList()
	if err != nil {
		return Mods{}, err
	}
	mods := Identity
	for k, v := range fields {
		switch k {
		case "srcip":
			a, err := netutil.ParseIPv4(v)
			if err != nil {
				return mods, fmt.Errorf("policy: mod srcip: %w", err)
			}
			mods = mods.SetSrcIP(a)
		case "dstip":
			a, err := netutil.ParseIPv4(v)
			if err != nil {
				return mods, fmt.Errorf("policy: mod dstip: %w", err)
			}
			mods = mods.SetDstIP(a)
		case "srcmac":
			mac, err := netutil.ParseMAC(v)
			if err != nil {
				return mods, err
			}
			mods = mods.SetSrcMAC(mac)
		case "dstmac":
			mac, err := netutil.ParseMAC(v)
			if err != nil {
				return mods, err
			}
			mods = mods.SetDstMAC(mac)
		case "srcport":
			n, err := parseUint(v, 16)
			if err != nil {
				return mods, fmt.Errorf("policy: mod srcport: %w", err)
			}
			mods = mods.SetSrcPort(uint16(n))
		case "dstport":
			n, err := parseUint(v, 16)
			if err != nil {
				return mods, fmt.Errorf("policy: mod dstport: %w", err)
			}
			mods = mods.SetDstPort(uint16(n))
		default:
			return mods, fmt.Errorf("policy: unknown mod field %q", k)
		}
	}
	return mods, nil
}

// parsePrefixOrHost accepts both 10.0.0.0/8 and a bare address (as a /32),
// matching the paper's examples which write match(dstip=74.125.1.1). Both
// must be IPv4.
func parsePrefixOrHost(s string) (netip.Prefix, error) {
	if strings.Contains(s, "/") {
		return netutil.ParseIPv4Prefix(s)
	}
	a, err := netutil.ParseIPv4(s)
	if err != nil {
		return netip.Prefix{}, err
	}
	return netip.PrefixFrom(a, a.BitLen()), nil
}

func parseUint(s string, bits int) (uint64, error) {
	base := 10
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		base, s = 16, s[2:]
	}
	return strconv.ParseUint(s, base, bits)
}
