// Overflow-checked int64 arithmetic for the normalization layer.
//
// Fuzzer-sized coefficients (up to ±2^63−1 straight from an OPB file) can
// wrap the accumulations inside normalize, AddConstraint's ≤→≥ negation and
// the objective fold — silently turning an UNSAT row into a trivially
// satisfied one, or corrupting the optimum. Every accumulation that touches
// externally supplied coefficients therefore goes through the helpers below:
// on overflow the operation *saturates* (so downstream comparisons stay
// ordered and nothing wraps to a small value) and the enclosing constructor
// reports ErrOverflow, which internal/opb surfaces from Parse.
package pb

import (
	"errors"
	"math"
)

// ErrOverflow reports that coefficient or objective arithmetic would exceed
// the int64 range. It is wrapped by the errors returned from AddConstraint,
// Validate and opb.Parse; test with errors.Is(err, pb.ErrOverflow).
var ErrOverflow = errors.New("pb: int64 overflow in coefficient arithmetic")

// MaxObjective is the largest worst-case objective value (Σ Cost, excluding
// CostOffset) the solver stack can represent soundly. The search engine
// encodes "no incumbent yet" as MaxInt64/2 and the bound estimators encode
// "subproblem infeasible" as MaxInt64/4; an instance whose achievable
// objective can reach those sentinels makes real values indistinguishable
// from the sentinels, and the engine — discovered by the differential fuzzer
// — prunes every feasible solution and reports a confident, wrong UNSAT.
// Validate therefore rejects ΣCost > MaxObjective (and |CostOffset| >
// MaxObjective) with ErrOverflow, and core.Solve refuses such instances
// outright rather than mis-solving them. One further power of two of
// headroom is kept below the MaxInt64/4 sentinel so that sums of a bound
// with a path cost, and the knapsack-cut degree TotalCost − upper + 1, stay
// exact without saturating.
const MaxObjective = math.MaxInt64 / 8

// addOK returns a+b and whether the addition stayed in range.
func addOK(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return s, false
	}
	return s, true
}

// subOK returns a−b and whether the subtraction stayed in range.
func subOK(a, b int64) (int64, bool) {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		return d, false
	}
	return d, true
}

// negOK returns −a and whether the negation stayed in range (−MinInt64
// does not exist).
func negOK(a int64) (int64, bool) {
	if a == math.MinInt64 {
		return math.MaxInt64, false
	}
	return -a, true
}

// CheckedAdd returns a+b, or ErrOverflow when the sum leaves the int64
// range. Exported for input layers (internal/opb) that fold externally
// supplied objective coefficients.
func CheckedAdd(a, b int64) (int64, error) {
	s, ok := addOK(a, b)
	if !ok {
		return s, ErrOverflow
	}
	return s, nil
}

// CheckedSub returns a−b, or ErrOverflow.
func CheckedSub(a, b int64) (int64, error) {
	d, ok := subOK(a, b)
	if !ok {
		return d, ErrOverflow
	}
	return d, nil
}

// CheckedNeg returns −a, or ErrOverflow (−MinInt64 does not exist).
func CheckedNeg(a int64) (int64, error) {
	n, ok := negOK(a)
	if !ok {
		return n, ErrOverflow
	}
	return n, nil
}

// satAdd returns a+b clamped to [MinInt64, MaxInt64]: overflow saturates
// instead of wrapping, keeping comparisons against bounds and degrees sane
// even on inputs that slipped past the constructors (defensive runtime
// paths like ObjectiveValue and TotalCost).
func satAdd(a, b int64) int64 {
	s, ok := addOK(a, b)
	if ok {
		return s
	}
	if b > 0 {
		return math.MaxInt64
	}
	return math.MinInt64
}
