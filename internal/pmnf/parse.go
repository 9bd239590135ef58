package pmnf

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// Parse builds a Model from a human-written PMNF expression over the given
// parameters. The accepted grammar covers both hand-written forms and the
// package's own Format output:
//
//	expr   := ['-'] term (('+'|'-') term)*
//	term   := factor (('*'|'·') factor)*
//	factor := number                 e.g. 2.5, 1e5
//	        | 10^k                   e.g. 10^5, 10^-2
//	        | param ['^' number]     e.g. n, p^0.25
//	        | log2['^' number] '(' param ')'
//	        | Collective '(' param ')'   Allreduce, Bcast, Alltoall, Allgather
//
// Within a term, numeric factors multiply into the coefficient and
// parameter factors merge (n·n^0.5 → n^1.5, log2(n)·log2(n) → log2^2(n)).
// Terms whose factors are all numeric accumulate into the constant.
func Parse(expr string, params ...string) (*Model, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("pmnf: no parameters")
	}
	paramIdx := map[string]int{}
	for i, p := range params {
		if p == "" {
			return nil, fmt.Errorf("pmnf: empty parameter name")
		}
		if _, dup := paramIdx[p]; dup {
			return nil, fmt.Errorf("pmnf: duplicate parameter %q", p)
		}
		paramIdx[p] = i
	}
	m := &Model{Params: append([]string(nil), params...)}
	p := &parser{src: expr, params: paramIdx}
	if err := p.parseExpr(m, len(params)); err != nil {
		return nil, fmt.Errorf("pmnf: parsing %q: %w", expr, err)
	}
	return m, nil
}

// MustParse is Parse that panics on error, for tests and fixed tables.
func MustParse(expr string, params ...string) *Model {
	m, err := Parse(expr, params...)
	if err != nil {
		panic(err)
	}
	return m
}

type parser struct {
	src    string
	pos    int
	params map[string]int
}

func (p *parser) parseExpr(m *Model, nParams int) error {
	sign := 1.0
	if p.peekRune() == '-' {
		p.pos++
		sign = -1
	}
	for {
		coeff, factors, err := p.parseTerm(nParams)
		if err != nil {
			return err
		}
		coeff *= sign
		constant := true
		for _, f := range factors {
			if !f.IsOne() {
				constant = false
			}
		}
		if constant {
			m.Constant += coeff
		} else {
			m.AddTerm(Term{Coeff: coeff, Factors: factors})
		}
		p.skipSpace()
		switch p.peekRune() {
		case '+':
			p.pos++
			sign = 1
		case '-':
			p.pos++
			sign = -1
		case 0:
			return nil
		default:
			return fmt.Errorf("unexpected %q at offset %d", p.peekRune(), p.pos)
		}
		// Unary minus on the following term ("+ -1·n", as Format renders
		// negative coefficients).
		p.skipSpace()
		if p.peekRune() == '-' {
			p.pos++
			sign = -sign
		}
	}
}

// parseTerm parses factor (('*'|'·') factor)* and merges the factors.
func (p *parser) parseTerm(nParams int) (float64, []Factor, error) {
	coeff := 1.0
	factors := make([]Factor, nParams)
	first := true
	for {
		p.skipSpace()
		c, f, pi, err := p.parseFactor()
		if err != nil {
			if first {
				return 0, nil, err
			}
			return 0, nil, err
		}
		first = false
		coeff *= c
		if pi >= 0 {
			if factors[pi].Special != None || f.Special != None {
				if !factors[pi].IsOne() {
					return 0, nil, fmt.Errorf("cannot combine collective with other factors of the same parameter")
				}
				factors[pi] = f
			} else {
				factors[pi].Poly += f.Poly
				factors[pi].Log += f.Log
			}
		}
		p.skipSpace()
		r := p.peekRune()
		if r == '*' || r == '·' {
			p.pos += len(string(r))
			continue
		}
		return coeff, factors, nil
	}
}

// parseFactor returns a numeric coefficient (1 if none), a factor and the
// parameter index it applies to (-1 for pure numbers).
func (p *parser) parseFactor() (float64, Factor, int, error) {
	p.skipSpace()
	r := p.peekRune()
	switch {
	case r == 0:
		return 0, One, -1, fmt.Errorf("unexpected end of expression")
	case r >= '0' && r <= '9' || r == '.':
		v, err := p.parseNumber()
		if err != nil {
			return 0, One, -1, err
		}
		// 10^k form.
		if v == 10 && p.peekRune() == '^' {
			p.pos++
			e, err := p.parseSignedNumber()
			if err != nil {
				return 0, One, -1, err
			}
			return math.Pow(10, e), One, -1, nil
		}
		return v, One, -1, nil
	default:
		ident := p.parseIdent()
		if ident == "" {
			return 0, One, -1, fmt.Errorf("unexpected %q at offset %d", r, p.pos)
		}
		if ident == "log2" || ident == "log" {
			exp := 1.0
			if p.peekRune() == '^' {
				p.pos++
				var err error
				exp, err = p.parseSignedNumber()
				if err != nil {
					return 0, One, -1, err
				}
			}
			param, err := p.parseParenParam()
			if err != nil {
				return 0, One, -1, err
			}
			return 1, Factor{Log: exp}, p.params[param], nil
		}
		for s, name := range specialNames {
			if s != None && name == ident {
				param, err := p.parseParenParam()
				if err != nil {
					return 0, One, -1, err
				}
				return 1, Factor{Special: s}, p.params[param], nil
			}
		}
		pi, ok := p.params[ident]
		if !ok {
			return 0, One, -1, fmt.Errorf("unknown identifier %q", ident)
		}
		exp := 1.0
		if p.peekRune() == '^' {
			p.pos++
			var err error
			exp, err = p.parseSignedNumber()
			if err != nil {
				return 0, One, -1, err
			}
		}
		return 1, Factor{Poly: exp}, pi, nil
	}
}

// parseParenParam parses "(param)".
func (p *parser) parseParenParam() (string, error) {
	p.skipSpace()
	if p.peekRune() != '(' {
		return "", fmt.Errorf("expected '(' at offset %d", p.pos)
	}
	p.pos++
	p.skipSpace()
	ident := p.parseIdent()
	if _, ok := p.params[ident]; !ok {
		return "", fmt.Errorf("unknown parameter %q", ident)
	}
	p.skipSpace()
	if p.peekRune() != ')' {
		return "", fmt.Errorf("expected ')' at offset %d", p.pos)
	}
	p.pos++
	return ident, nil
}

func (p *parser) parseSignedNumber() (float64, error) {
	p.skipSpace()
	neg := false
	if p.peekRune() == '-' {
		neg = true
		p.pos++
	}
	v, err := p.parseNumber()
	if neg {
		v = -v
	}
	return v, err
}

func (p *parser) parseNumber() (float64, error) {
	p.skipSpace()
	start := p.pos
	seenE := false
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c >= '0' && c <= '9' || c == '.':
			p.pos++
		case (c == 'e' || c == 'E') && !seenE && p.pos > start:
			// Exponent only when followed by a digit or sign+digit.
			if p.pos+1 < len(p.src) && (isDigit(p.src[p.pos+1]) ||
				((p.src[p.pos+1] == '+' || p.src[p.pos+1] == '-') && p.pos+2 < len(p.src) && isDigit(p.src[p.pos+2]))) {
				seenE = true
				p.pos++
				if p.src[p.pos] == '+' || p.src[p.pos] == '-' {
					p.pos++
				}
			} else {
				goto done
			}
		default:
			goto done
		}
	}
done:
	if p.pos == start {
		return 0, fmt.Errorf("expected number at offset %d", start)
	}
	v, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", p.src[start:p.pos])
	}
	return v, nil
}

func (p *parser) parseIdent() string {
	start := p.pos
	for p.pos < len(p.src) {
		r, size := decodeRune(p.src[p.pos:])
		// ASCII identifiers only; multi-byte runes (like the '·' separator)
		// terminate the identifier.
		if size == 1 && (unicode.IsLetter(r) || r == '_' || (p.pos > start && unicode.IsDigit(r))) {
			p.pos += size
		} else {
			break
		}
	}
	return p.src[start:p.pos]
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		r, size := decodeRune(p.src[p.pos:])
		if r == ' ' || r == '\t' {
			p.pos += size
		} else {
			return
		}
	}
}

func (p *parser) peekRune() rune {
	if p.pos >= len(p.src) {
		return 0
	}
	r, _ := decodeRune(p.src[p.pos:])
	return r
}

func decodeRune(s string) (rune, int) {
	for _, r := range s {
		return r, len(string(r))
	}
	return 0, 0
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// ParseAppModels parses a ';'-separated list of "metricName=expr" entries
// into a name → model map (the CLI format of codesign -custom-models).
func ParseAppModels(spec string, params ...string) (map[string]*Model, error) {
	out := map[string]*Model{}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		eq := strings.IndexByte(entry, '=')
		if eq < 0 {
			return nil, fmt.Errorf("pmnf: entry %q is not metric=expr", entry)
		}
		name := strings.TrimSpace(entry[:eq])
		model, err := Parse(entry[eq+1:], params...)
		if err != nil {
			return nil, err
		}
		out[name] = model
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("pmnf: empty model spec")
	}
	return out, nil
}
