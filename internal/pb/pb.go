// Package pb defines the linear Pseudo-Boolean Optimization (PBO) problem
// model used throughout the repository.
//
// An instance is
//
//	minimize   Σ_j c_j · x_j
//	subject to Σ_j a_ij · l_ij ≥ b_i        for every constraint i
//	           x_j ∈ {0,1}
//
// where every literal l_ij is a variable x_j or its complement ¬x_j, and all
// coefficients a_ij, degrees b_i, and costs c_j are non-negative integers.
// Arbitrary linear pseudo-Boolean constraints (≤, =, negative coefficients,
// negative costs) are brought into this normal form by the constructors in
// this package; see Problem.AddConstraint and NewProblem.
package pb

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// Var identifies a Boolean decision variable. Variables are dense integers
// starting at 0.
type Var int32

// Lit is a literal: a variable or its complement. The encoding is
// 2*v for the positive literal x_v and 2*v+1 for the negative literal ¬x_v.
type Lit int32

// NoLit is the zero-ish sentinel for "no literal".
const NoLit Lit = -1

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v << 1) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v<<1 | 1) }

// MkLit returns the literal of v with the given sign; neg=true yields ¬v.
func MkLit(v Var, neg bool) Lit {
	if neg {
		return NegLit(v)
	}
	return PosLit(v)
}

// Var returns the variable underlying l.
func (l Lit) Var() Var { return Var(l >> 1) }

// IsNeg reports whether l is a negative literal (¬x).
func (l Lit) IsNeg() bool { return l&1 == 1 }

// Neg returns the complement of l.
func (l Lit) Neg() Lit { return l ^ 1 }

// String renders l as x<i> or ~x<i>.
func (l Lit) String() string {
	if l == NoLit {
		return "nil"
	}
	if l.IsNeg() {
		return fmt.Sprintf("~x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// Eval reports whether l is true under the given assignment of its variable.
func (l Lit) Eval(varValue bool) bool { return varValue != l.IsNeg() }

// Term is one coefficient–literal pair of a constraint's left-hand side.
type Term struct {
	Coef int64
	Lit  Lit
}

// Constraint is a normalized pseudo-Boolean constraint
//
//	Σ_k Coef_k · Lit_k ≥ Degree
//
// with all Coef_k > 0 and Degree ≥ 0, at most one term per variable, and
// every Coef_k ≤ Degree (coefficients are clipped: a coefficient larger than
// the degree propagates identically to one equal to it).
type Constraint struct {
	Terms  []Term
	Degree int64
	// Learned marks constraints derived during search (conflict clauses,
	// knapsack cuts) as opposed to problem constraints.
	Learned bool
}

// Kind classifies a normalized constraint.
type Kind int

const (
	// KindTrivial is a constraint with Degree ≤ 0: always satisfied.
	KindTrivial Kind = iota
	// KindClause requires a single true literal (all coefficients ≥ degree;
	// after clipping, all equal to it with degree scaled to 1-like behaviour).
	KindClause
	// KindCardinality has all coefficients equal but needs ≥2 literals true.
	KindCardinality
	// KindGeneral is any other pseudo-Boolean constraint.
	KindGeneral
)

func (k Kind) String() string {
	switch k {
	case KindTrivial:
		return "trivial"
	case KindClause:
		return "clause"
	case KindCardinality:
		return "cardinality"
	default:
		return "general"
	}
}

// Kind reports the classification of c.
func (c *Constraint) Kind() Kind {
	if c.Degree <= 0 {
		return KindTrivial
	}
	if len(c.Terms) == 0 {
		return KindGeneral // positive degree with no terms: unsatisfiable
	}
	allEqual := true
	for _, t := range c.Terms {
		if t.Coef != c.Terms[0].Coef {
			allEqual = false
			break
		}
	}
	if !allEqual {
		return KindGeneral
	}
	k := c.Terms[0].Coef
	need := (c.Degree + k - 1) / k // ⌈Degree/k⌉ literals must be true
	if need <= 1 {
		return KindClause
	}
	return KindCardinality
}

// CardinalityNeed returns, for a clause or cardinality constraint with all
// coefficients equal to k, the number ⌈Degree/k⌉ of literals that must be
// true. For general constraints it returns a valid lower bound on the number
// of true literals (⌈Degree/maxCoef⌉).
func (c *Constraint) CardinalityNeed() int64 {
	if c.Degree <= 0 {
		return 0
	}
	var maxCoef int64
	for _, t := range c.Terms {
		if t.Coef > maxCoef {
			maxCoef = t.Coef
		}
	}
	if maxCoef == 0 {
		return 0
	}
	return (c.Degree + maxCoef - 1) / maxCoef
}

// CoefSum returns the sum of all coefficients. The sum saturates at MaxInt64
// instead of wrapping (normalized constraints reject overflowing sums at
// construction, so saturation is purely defensive).
func (c *Constraint) CoefSum() int64 {
	var s int64
	for _, t := range c.Terms {
		s = satAdd(s, t.Coef)
	}
	return s
}

// Slack returns CoefSum − Degree: the amount by which the constraint can
// "afford" falsified literals before becoming unsatisfiable.
func (c *Constraint) Slack() int64 { return c.CoefSum() - c.Degree }

// Eval reports whether the constraint holds under the full assignment
// values[v] (indexed by variable).
func (c *Constraint) Eval(values []bool) bool {
	var lhs int64
	for _, t := range c.Terms {
		if t.Lit.Eval(values[t.Lit.Var()]) {
			lhs += t.Coef
		}
	}
	return lhs >= c.Degree
}

// Clone returns a deep copy of c.
func (c *Constraint) Clone() *Constraint {
	terms := make([]Term, len(c.Terms))
	copy(terms, c.Terms)
	return &Constraint{Terms: terms, Degree: c.Degree, Learned: c.Learned}
}

// String renders the constraint in OPB-like syntax.
func (c *Constraint) String() string {
	var sb strings.Builder
	for i, t := range c.Terms {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "+%d %s", t.Coef, t.Lit)
	}
	fmt.Fprintf(&sb, " >= %d", c.Degree)
	return sb.String()
}

// Cmp is the relational operator of a raw (pre-normalization) constraint.
type Cmp int

const (
	// GE is Σ terms ≥ rhs.
	GE Cmp = iota
	// LE is Σ terms ≤ rhs.
	LE
	// EQ is Σ terms = rhs.
	EQ
)

func (c Cmp) String() string {
	switch c {
	case GE:
		return ">="
	case LE:
		return "<="
	default:
		return "="
	}
}

// Problem is a PBO instance in normal form.
type Problem struct {
	// NumVars is the number of decision variables; variables are 0..NumVars-1.
	NumVars int
	// Cost[v] is the non-negative cost incurred when x_v = 1. After
	// normalization of negative input costs, the true objective value is
	// CostOffset + Σ Cost[v]·x_v.
	Cost []int64
	// CostOffset is the constant added to the normalized objective to
	// recover the original objective value.
	CostOffset int64
	// Constraints are the normalized problem constraints.
	Constraints []*Constraint
	// Names optionally maps variables to external names (e.g. from OPB
	// files). May be nil or shorter than NumVars.
	Names []string
}

// VarName returns the external name of v: Names[v] when set, else the
// 1-based OPB name x<k>.
func (p *Problem) VarName(v Var) string {
	if int(v) < len(p.Names) && p.Names[v] != "" {
		return p.Names[v]
	}
	return fmt.Sprintf("x%d", int(v)+1)
}

// NewProblem returns an empty problem with n variables and zero costs.
func NewProblem(n int) *Problem {
	return &Problem{
		NumVars: n,
		Cost:    make([]int64, n),
	}
}

// AddVar appends a fresh variable with the given cost (which may be
// negative; negative costs are normalized into CostOffset) and returns it.
func (p *Problem) AddVar(cost int64) Var {
	v := Var(p.NumVars)
	p.NumVars++
	p.Cost = append(p.Cost, 0)
	p.SetCost(v, cost)
	return v
}

// SetCost assigns variable v the objective coefficient cost. A negative cost
// is normalized by the substitution x = 1 − ¬x: the problem stores cost
// |cost| on the complemented polarity via CostOffset bookkeeping. Concretely,
// for cost < 0 we record Cost[v] = 0 and instead penalize x_v = 0, which is
// expressed by adding cost to CostOffset and storing −cost as a "negative
// polarity" cost. Since the engine only understands costs on x=1, the
// substitution flips the literal meaning: we keep Cost[v] = −cost with
// offset cost, and callers must complement v's polarity themselves; the OPB
// layer does this. Here we only accept cost ≥ 0 and panic otherwise to keep
// the core model simple.
func (p *Problem) SetCost(v Var, cost int64) {
	if cost < 0 {
		panic("pb: SetCost requires non-negative cost; normalize at input layer")
	}
	p.Cost[v] = cost
}

// TotalCost returns the sum of all variable costs (the worst possible
// normalized objective value, an upper bound on any solution cost + 1 slack).
// The sum saturates at MaxInt64 instead of wrapping; Validate rejects
// problems whose total cost overflows, so a saturated value can only be seen
// on problems that bypassed the input layer.
func (p *Problem) TotalCost() int64 {
	var s int64
	for _, c := range p.Cost {
		s = satAdd(s, c)
	}
	return s
}

// HasObjective reports whether any variable has a nonzero cost. Instances
// without an objective are pure PB satisfaction problems (like the paper's
// acc-tight family).
func (p *Problem) HasObjective() bool {
	for _, c := range p.Cost {
		if c != 0 {
			return true
		}
	}
	return false
}

// AddConstraint normalizes and appends the constraint Σ terms cmp rhs.
// Terms may mention a variable several times and with negative coefficients;
// EQ is split into GE+LE. Trivially true constraints are dropped; trivially
// false constraints are recorded as an empty constraint with positive degree
// (which the solver reports as UNSAT). It returns an error if a term
// mentions an out-of-range variable, or ErrOverflow.
func (p *Problem) AddConstraint(terms []Term, cmp Cmp, rhs int64) error {
	for _, t := range terms {
		if v := t.Lit.Var(); v < 0 || int(v) >= p.NumVars {
			return fmt.Errorf("pb: constraint mentions undefined variable x%d (problem has %d vars)", v, p.NumVars)
		}
	}
	negate := false
	switch cmp {
	case GE:
	case LE:
		// Σ a·l ≤ b  ⇔  Σ −a·l ≥ −b; normalize negates as it merges.
		for _, t := range terms {
			if _, ok := negOK(t.Coef); !ok {
				return fmt.Errorf("pb: coefficient %d on %s: %w", t.Coef, t.Lit, ErrOverflow)
			}
		}
		nrhs, ok := negOK(rhs)
		if !ok {
			return fmt.Errorf("pb: right-hand side %d: %w", rhs, ErrOverflow)
		}
		rhs, negate = nrhs, true
	case EQ:
		if err := p.AddConstraint(terms, GE, rhs); err != nil {
			return err
		}
		return p.AddConstraint(terms, LE, rhs)
	default:
		return fmt.Errorf("pb: unknown comparison %d", cmp)
	}
	c, err := normalize(terms, rhs, negate)
	if c != nil {
		p.Constraints = append(p.Constraints, c)
	}
	return err
}

// AddClause appends the clause l1 ∨ l2 ∨ … (Σ l_k ≥ 1).
func (p *Problem) AddClause(lits ...Lit) error { return p.addUnit(lits, GE, 1) }

// AddAtLeast appends the cardinality constraint Σ lits ≥ k.
func (p *Problem) AddAtLeast(lits []Lit, k int64) error { return p.addUnit(lits, GE, k) }

// AddAtMost appends the cardinality constraint Σ lits ≤ k.
func (p *Problem) AddAtMost(lits []Lit, k int64) error { return p.addUnit(lits, LE, k) }

// AddExactlyOne appends Σ lits = 1.
func (p *Problem) AddExactlyOne(lits ...Lit) error { return p.addUnit(lits, EQ, 1) }

// addUnit appends Σ lits op k, every literal with coefficient 1.
func (p *Problem) addUnit(lits []Lit, op Cmp, k int64) error {
	terms := make([]Term, len(lits))
	for i, l := range lits {
		terms[i] = Term{Coef: 1, Lit: l}
	}
	return p.AddConstraint(terms, op, k)
}

// ObjectiveValue returns CostOffset + Σ Cost[v]·x_v for the full assignment.
// The accumulation saturates at the int64 limits instead of wrapping (see
// overflow.go); Validate guarantees a validated problem's objective cannot
// overflow, so saturation only fires on problems that bypassed the input
// layer.
func (p *Problem) ObjectiveValue(values []bool) int64 {
	s := p.CostOffset
	for v, c := range p.Cost {
		if c != 0 && values[v] {
			s = satAdd(s, c)
		}
	}
	return s
}

// Feasible reports whether the full assignment satisfies every constraint.
func (p *Problem) Feasible(values []bool) bool {
	for _, c := range p.Constraints {
		if !c.Eval(values) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the problem.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		NumVars:    p.NumVars,
		Cost:       append([]int64(nil), p.Cost...),
		CostOffset: p.CostOffset,
		Names:      append([]string(nil), p.Names...),
	}
	q.Constraints = make([]*Constraint, len(p.Constraints))
	for i, c := range p.Constraints {
		q.Constraints[i] = c.Clone()
	}
	return q
}

// Validate checks internal consistency (normal form invariants) and returns
// a descriptive error when violated. Intended for tests and input layers.
func (p *Problem) Validate() error {
	if len(p.Cost) != p.NumVars {
		return fmt.Errorf("pb: len(Cost)=%d != NumVars=%d", len(p.Cost), p.NumVars)
	}
	if p.CostOffset > MaxObjective || p.CostOffset < -MaxObjective {
		return fmt.Errorf("pb: CostOffset %d exceeds the solver headroom ±%d: %w",
			p.CostOffset, MaxObjective, ErrOverflow)
	}
	var totalCost int64 = p.CostOffset
	var sumCost int64
	for v, c := range p.Cost {
		if c < 0 {
			return fmt.Errorf("pb: negative cost %d on x%d", c, v)
		}
		var ok bool
		if totalCost, ok = addOK(totalCost, c); !ok {
			return fmt.Errorf("pb: objective CostOffset + ΣCost at x%d: %w", v, ErrOverflow)
		}
		if sumCost, ok = addOK(sumCost, c); !ok || sumCost > MaxObjective {
			// Found by the differential fuzzer (testdata/fuzz-corpus/
			// seed-*.opb): a worst-case objective at or above the solver's
			// "no incumbent yet" sentinel makes every feasible solution look
			// worse than an incumbent that does not exist, and the search
			// soundly-looking claims UNSAT. Such instances must be rejected
			// at the input layer, never mis-solved.
			return fmt.Errorf("pb: ΣCost at x%d exceeds the solver headroom %d: %w",
				v, MaxObjective, ErrOverflow)
		}
	}
	// stamp[v] == i+1 marks x_v as already seen in constraint i.
	stamp := make([]int, p.NumVars)
	for i, c := range p.Constraints {
		if c.Degree < 0 {
			return fmt.Errorf("pb: constraint %d has negative degree %d", i, c.Degree)
		}
		for _, t := range c.Terms {
			if t.Coef <= 0 {
				return fmt.Errorf("pb: constraint %d has non-positive coefficient %d", i, t.Coef)
			}
			if t.Coef > c.Degree {
				return fmt.Errorf("pb: constraint %d has coefficient %d > degree %d (not clipped)", i, t.Coef, c.Degree)
			}
			v := t.Lit.Var()
			if v < 0 || int(v) >= p.NumVars {
				return fmt.Errorf("pb: constraint %d mentions undefined x%d", i, v)
			}
			if stamp[v] == i+1 {
				return fmt.Errorf("pb: constraint %d mentions x%d twice", i, v)
			}
			stamp[v] = i + 1
		}
		// Degree ≤ CoefSum or the constraint is an intentional UNSAT marker;
		// either way the sum itself must not wrap (CoefSum saturates, so a
		// wrapped store would already have corrupted Slack/propagation).
		var sum int64
		for _, t := range c.Terms {
			var ok bool
			if sum, ok = addOK(sum, t.Coef); !ok {
				return fmt.Errorf("pb: constraint %d coefficient sum: %w", i, ErrOverflow)
			}
		}
	}
	return nil
}

// mergeScratch is normalize's reused buffer: the k-th variable to appear,
// order[k], has net coefficient net[k] on its positive literal and
// pos[order[k]] = k+1 (0 for a variable not seen yet); out collects the
// normalized terms.
type mergeScratch struct {
	pos   []int32
	order []Var
	net   []int64
	out   []Term
}

var mergePool = sync.Pool{New: func() any { return new(mergeScratch) }}

// normalize converts Σ terms ≥ rhs, with every coefficient negated when
// negate is set (the ≤ form; the caller has checked that every negation is
// in range), into normal form: it merges duplicate variables, removes zero
// coefficients, flips negative coefficients via a·l = a − a·¬l, clips
// coefficients at the degree, and sorts terms by descending coefficient
// (ties by literal). It returns nil when the constraint is trivially true
// (degree ≤ 0); a trivially false one (degree > coefficient sum) is
// returned as is. Every accumulation is overflow-checked and reports
// ErrOverflow; terms merge in input order, so the first overflow in input
// order is the one reported.
func normalize(terms []Term, rhs int64, negate bool) (*Constraint, error) {
	s := mergePool.Get().(*mergeScratch)
	defer func() {
		for _, v := range s.order {
			s.pos[v] = 0
		}
		s.order, s.net, s.out = s.order[:0], s.net[:0], s.out[:0]
		mergePool.Put(s)
	}()
	// Merge per-variable contributions. For variable v with positive-literal
	// coefficient ap and negative-literal coefficient an:
	//   ap·x + an·(1−x) = (ap−an)·x + an
	// so the merged coefficient on x is ap−an and rhs decreases by an.
	var ok bool
	for _, t := range terms {
		c, v := t.Coef, t.Lit.Var()
		if c == 0 {
			continue
		}
		if negate {
			c = -c
		}
		if int(v) >= len(s.pos) {
			s.pos = append(s.pos, make([]int32, int(v)+1-len(s.pos))...)
		}
		if s.pos[v] == 0 {
			s.order, s.net = append(s.order, v), append(s.net, 0)
			s.pos[v] = int32(len(s.order))
		}
		k := s.pos[v] - 1
		if t.Lit.IsNeg() {
			if s.net[k], ok = subOK(s.net[k], c); !ok {
				return nil, fmt.Errorf("pb: merged coefficient on %s: %w", t.Lit, ErrOverflow)
			}
			if rhs, ok = subOK(rhs, c); !ok {
				return nil, fmt.Errorf("pb: degree adjustment for %s: %w", t.Lit, ErrOverflow)
			}
		} else if s.net[k], ok = addOK(s.net[k], c); !ok {
			return nil, fmt.Errorf("pb: merged coefficient on %s: %w", t.Lit, ErrOverflow)
		}
	}
	for k, a := range s.net {
		v := s.order[k]
		switch {
		case a > 0:
			s.out = append(s.out, Term{Coef: a, Lit: PosLit(v)})
		case a < 0:
			// a·x = a − a·(1−x) = a + (−a)·¬x ⇒ move constant a to rhs.
			na, ok := negOK(a)
			if !ok {
				return nil, fmt.Errorf("pb: flipped coefficient on x%d: %w", v, ErrOverflow)
			}
			s.out = append(s.out, Term{Coef: na, Lit: NegLit(v)})
			if rhs, ok = subOK(rhs, a); !ok {
				return nil, fmt.Errorf("pb: degree adjustment for x%d: %w", v, ErrOverflow)
			}
		}
	}
	if rhs <= 0 {
		return nil, nil // trivially satisfied
	}
	// Clip coefficients at the degree: a literal with coef ≥ degree
	// satisfies the constraint alone either way. After clipping every
	// coefficient is ≤ rhs, but the *sum* over many terms can still wrap —
	// and a wrapped CoefSum corrupts slack-based propagation — so reject it.
	var sum int64
	for i := range s.out {
		s.out[i].Coef = min(s.out[i].Coef, rhs)
		if sum, ok = addOK(sum, s.out[i].Coef); !ok {
			return nil, fmt.Errorf("pb: coefficient sum of normalized constraint: %w", ErrOverflow)
		}
	}
	slices.SortFunc(s.out, func(a, b Term) int {
		if a.Coef != b.Coef {
			return cmp.Compare(b.Coef, a.Coef)
		}
		return cmp.Compare(a.Lit, b.Lit)
	})
	// The stored terms are an exact-length copy, never the scratch.
	return &Constraint{Terms: append(make([]Term, 0, len(s.out)), s.out...), Degree: rhs}, nil
}

// BruteForceResult is the outcome of the exhaustive reference solver.
type BruteForceResult struct {
	Feasible bool
	Optimum  int64 // includes CostOffset; meaningful only when Feasible
	Values   []bool
}

// BruteForce exhaustively solves p (reference implementation for tests).
// It panics if p has more than 24 variables.
func BruteForce(p *Problem) BruteForceResult {
	if p.NumVars > 24 {
		panic("pb: BruteForce limited to 24 variables")
	}
	n := p.NumVars
	best := BruteForceResult{Optimum: math.MaxInt64}
	values := make([]bool, n)
	for mask := 0; mask < 1<<n; mask++ {
		for v := 0; v < n; v++ {
			values[v] = mask&(1<<v) != 0
		}
		if !p.Feasible(values) {
			continue
		}
		obj := p.ObjectiveValue(values)
		if !best.Feasible || obj < best.Optimum {
			best.Feasible = true
			best.Optimum = obj
			best.Values = append([]bool(nil), values...)
		}
	}
	if !best.Feasible {
		best.Optimum = 0
	}
	return best
}
