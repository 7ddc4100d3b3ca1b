package opb

import (
	"bytes"
	"fmt"
	"io"
	"unicode"
	"unicode/utf8"

	"repro/internal/pb"
)

// Scanner reads OPB-family text from one buffer. Lines and tokens are
// sub-slices of it, and tokens go into a list the caller provides, so
// scanning allocates nothing. The OPB and soft-OPB readers scan statements
// through a Reader; the DIMACS WCNF reader uses NextLine, Fields and
// ParseInt.
type Scanner struct {
	Line      int    // lines read so far
	buf, rest []byte // input after the current line; its unscanned tail
}

// NewScanner returns a Scanner over buf.
func NewScanner(buf []byte) *Scanner { return &Scanner{buf: buf} }

// ReadAll reads r to the end, in one allocation when r reports its length.
func ReadAll(r io.Reader) ([]byte, error) {
	var b bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		b.Grow(l.Len() + bytes.MinRead)
	}
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// NextLine returns the next line without its "\n" or "\r\n", as
// bufio.ScanLines splits lines.
func (s *Scanner) NextLine() (line []byte, ok bool) {
	if len(s.buf) == 0 {
		return nil, false
	}
	line, s.buf = s.buf, nil
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line, s.buf = line[:i], line[i+1:]
	}
	s.Line++
	return bytes.TrimSuffix(line, []byte("\r")), true
}

// Statement appends to dst the tokens of the next non-empty statement: the
// tokens up to the next ';', or to the end of the input. A '*' starts a
// comment that runs to the end of its line. Line is then the line of the
// ';' (or the last line). ok is false at the end of the input.
func (s *Scanner) Statement(dst [][]byte) (toks [][]byte, ok bool) {
	for {
		b := trimSpace(s.rest)
		switch {
		case len(b) == 0:
			line, ok := s.NextLine()
			if !ok {
				return dst, len(dst) > 0
			}
			if i := bytes.IndexByte(line, '*'); i >= 0 {
				line = line[:i]
			}
			s.rest = line
		case b[0] == ';':
			s.rest = b[1:]
			if len(dst) > 0 {
				return dst, true
			}
		default:
			n := tokenLen(b, ';')
			dst, s.rest = append(dst, b[:n]), b[n:]
		}
	}
}

// Fields appends the tokens of line to dst, split as strings.Fields splits.
func Fields(dst [][]byte, line []byte) [][]byte {
	for line = trimSpace(line); len(line) > 0; line = trimSpace(line) {
		n := tokenLen(line, 0)
		dst, line = append(dst, line[:n]), line[n:]
	}
	return dst
}

// asciiSpace[c] is 1 for the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// spaceLen is the length of the unicode.IsSpace rune b starts with, or 0.
func spaceLen(b []byte) int {
	if b[0] < utf8.RuneSelf {
		return int(asciiSpace[b[0]])
	}
	return wideSpaceLen(b)
}

func wideSpaceLen(b []byte) int {
	if r, n := utf8.DecodeRune(b); unicode.IsSpace(r) {
		return n
	}
	return 0
}

func trimSpace(b []byte) []byte {
	for n := 0; len(b) > 0; b = b[n:] {
		if n = spaceLen(b); n == 0 {
			break
		}
	}
	return b
}

// tokenLen is the length of the token b starts with: up to white space or
// the stop byte (0 for none).
func tokenLen(b []byte, stop byte) int {
	for n, c := range b {
		if c < utf8.RuneSelf && (asciiSpace[c] == 1 || c == stop && stop != 0) || c >= utf8.RuneSelf && wideSpaceLen(b[n:]) > 0 {
			return n
		}
	}
	return len(b)
}

// ParseInt accepts exactly what strconv.ParseInt(string(b), 10, 64)
// accepts, without building an error for what it rejects.
func ParseInt(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if len(b) > 0 && (neg || b[0] == '+') {
		b = b[1:]
	}
	limit := uint64(1)<<63 - 1 // MaxInt64, or |MinInt64| when negative
	if neg {
		limit++
	}
	var u uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if neg {
		u = -u
	}
	return int64(u), len(b) > 0
}

// sizeHint reads the "* #variable= n #constraint= m" first line that the
// PB evaluation format (and Write) puts on top, to size the parse tables.
// It is only a hint; values above a quarter of the input size are ignored.
func sizeHint(buf []byte) (vars, cons int) {
	line, _, _ := bytes.Cut(buf, []byte("\n"))
	f := Fields(nil, line)
	for i := 1; i < len(f); i++ {
		if n, ok := ParseInt(f[i]); ok && n > 0 && n <= int64(len(buf)/4) {
			switch string(f[i-1]) {
			case "#variable=":
				vars = int(n)
			case "#constraint=":
				cons = int(n)
			}
		}
	}
	return vars, cons
}

// validName reports whether b is a variable identifier: a letter or '_'
// followed by letters, digits or '_'. It is the class the writers emit
// (x<k>, user names, the _n/_p synthetics), so everything this package
// writes re-parses, and no name can collide with the "-" false-literal
// prefix of the value-line format.
func validName(b []byte) bool {
	for i, c := range b {
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9') {
			return false
		}
	}
	return len(b) > 0
}

// Reader decodes the statements of one OPB or soft-OPB text. The grammars
// share statements, literals and relational operators and differ in terms:
// OPB needs a coefficient on every term and reads several literals after
// one coefficient as their product; soft OPB reads a bare literal as +1 and
// has no products.
type Reader struct {
	*Scanner
	soft     bool
	prefix   string                   // "opb" or "wbo", for errors
	newVar   func(name string) pb.Var // creates a name's variable on first use
	vars     map[string]pb.Var
	terms    []pb.Term
	lits     []pb.Lit
	products *productTable // OPB only
}

// NewSoftReader returns a soft-OPB Reader over buf.
func NewSoftReader(buf []byte, newVar func(name string) pb.Var) *Reader {
	vars, _ := sizeHint(buf)
	return &Reader{Scanner: NewScanner(buf), soft: true, prefix: "wbo", newVar: newVar, vars: make(map[string]pb.Var, vars)}
}

// Errorf returns an error naming the format and the statement's line.
func (r *Reader) Errorf(format string, args ...any) error {
	return fmt.Errorf("%s: line %d: "+format, append([]any{r.prefix, r.Line}, args...)...)
}

// Objective reports whether a statement is an objective, "min: …". Both
// formats reject "max:".
func (r *Reader) Objective(toks [][]byte) (bool, error) {
	if bytes.EqualFold(toks[0], []byte("max:")) {
		return false, r.Errorf("max: objectives are not supported (negate to min:)")
	}
	return bytes.EqualFold(toks[0], []byte("min:")), nil
}

func relation(tok []byte) (pb.Cmp, bool) {
	switch string(tok) {
	case ">=":
		return pb.GE, true
	case "<=":
		return pb.LE, true
	case "=":
		return pb.EQ, true
	}
	return 0, false
}

// Constraint splits a constraint statement at its first relational
// operator and parses the right-hand side, which must be one integer.
func (r *Reader) Constraint(toks [][]byte) (lhs [][]byte, cmp pb.Cmp, rhs int64, err error) {
	for i, t := range toks {
		var ok bool
		if cmp, ok = relation(t); !ok {
			continue
		}
		if rt := toks[i+1:]; len(rt) != 1 {
			err = r.Errorf("expected single right-hand side, got [%s]", bytes.Join(rt, []byte(" ")))
		} else if rhs, ok = ParseInt(rt[0]); !ok {
			err = r.Errorf("bad right-hand side %q", rt[0])
		}
		return toks[:i], cmp, rhs, err
	}
	return nil, 0, 0, r.Errorf("constraint without relational operator")
}

// Terms parses the left-hand side of a statement. The slice is reused by
// the next call.
func (r *Reader) Terms(toks [][]byte) ([]pb.Term, error) {
	r.terms = r.terms[:0]
	for i := 0; i < len(toks); i++ {
		coefTok := toks[i]
		coef, isNum := ParseInt(coefTok)
		if r.soft {
			// One literal per term, with an implicit +1 on a bare one.
			if !isNum {
				coef = 1
			} else if i++; i == len(toks) {
				return nil, r.Errorf("coefficient %d without literal", coef)
			}
			lit, err := r.literal(toks[i])
			if err != nil {
				return nil, err
			}
			r.terms = append(r.terms, pb.Term{Coef: coef, Lit: lit})
			continue
		}
		if !isNum {
			return nil, r.Errorf("expected coefficient, got %q", coefTok)
		}
		// The literals up to the next coefficient; more than one is a
		// product term, per the OPB specification.
		r.lits = r.lits[:0]
		for i+1 < len(toks) {
			if _, isNum := ParseInt(toks[i+1]); isNum {
				break
			}
			i++
			lit, err := r.literal(toks[i])
			if err != nil {
				return nil, err
			}
			r.lits = append(r.lits, lit)
		}
		if len(r.lits) == 0 {
			return nil, r.Errorf("coefficient %q without literal", coefTok)
		}
		lit, err := r.products.literal(r.lits)
		if err != nil {
			return nil, r.Errorf("%w", err)
		}
		r.terms = append(r.terms, pb.Term{Coef: coef, Lit: lit})
	}
	return r.terms, nil
}

// literal resolves a literal token, [~]name, creating the variable on the
// first occurrence of its name.
func (r *Reader) literal(tok []byte) (pb.Lit, error) {
	neg := len(tok) > 0 && tok[0] == '~'
	if neg {
		tok = tok[1:]
	}
	if v, ok := r.vars[string(tok)]; ok {
		return pb.MkLit(v, neg), nil
	}
	switch {
	case r.soft && !validName(tok):
		return pb.NoLit, r.Errorf("wbo: bad variable name %q", tok)
	case len(tok) == 0:
		return pb.NoLit, r.Errorf("empty literal")
	case !validName(tok):
		// A stray operator token ("-", "=") must be a parse error, not a
		// variable. (Differential-fuzzer finding: a variable named "-"
		// corrupts the value-line round trip, where "-" marks false.)
		return pb.NoLit, r.Errorf("invalid variable name %q", tok)
	}
	name := string(tok)
	v := r.newVar(name)
	r.vars[name] = v
	return pb.MkLit(v, neg), nil
}
