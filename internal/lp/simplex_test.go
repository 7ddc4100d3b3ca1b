package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p *Problem) Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestTrivialNoRows(t *testing.T) {
	// min x0 − not expressible (costs can be negative here): min -x0 + x1
	// over [0,1]^2 ⇒ x0=1, x1=0, obj −1.
	p := &Problem{NumVars: 2, Cost: []float64{-1, 1}}
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status=%v", sol.Status)
	}
	if math.Abs(sol.Objective-(-1)) > 1e-6 {
		t.Fatalf("obj=%v", sol.Objective)
	}
	if math.Abs(sol.X[0]-1) > 1e-6 || math.Abs(sol.X[1]) > 1e-6 {
		t.Fatalf("x=%v", sol.X)
	}
}

func TestSingleConstraint(t *testing.T) {
	// min x0 + 2 x1 s.t. x0 + x1 >= 1 ⇒ x0=1, obj 1.
	p := &Problem{
		NumVars: 2,
		Cost:    []float64{1, 2},
		Rows:    []Row{{Entries: []Entry{{0, 1}, {1, 1}}, RHS: 1}},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-1) > 1e-6 {
		t.Fatalf("got %+v", sol)
	}
	if math.Abs(sol.Slack[0]) > 1e-6 {
		t.Fatalf("slack=%v want 0", sol.Slack)
	}
	if sol.Dual[0] < 0.5 {
		t.Fatalf("dual=%v want ~1", sol.Dual)
	}
}

func TestFractionalOptimum(t *testing.T) {
	// min x0 + x1 s.t. 2x0 + x1 >= 1, x0 + 2x1 >= 1.
	// LP optimum at x0=x1=1/3, obj 2/3 (integer optimum is 1).
	p := &Problem{
		NumVars: 2,
		Cost:    []float64{1, 1},
		Rows: []Row{
			{Entries: []Entry{{0, 2}, {1, 1}}, RHS: 1},
			{Entries: []Entry{{0, 1}, {1, 2}}, RHS: 1},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-2.0/3.0) > 1e-6 {
		t.Fatalf("obj=%v want 2/3", sol.Objective)
	}
	if math.Abs(sol.X[0]-1.0/3.0) > 1e-6 || math.Abs(sol.X[1]-1.0/3.0) > 1e-6 {
		t.Fatalf("x=%v", sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	// x0 >= 1 and −x0 >= 0 (i.e. x0 ≤ 0): infeasible.
	p := &Problem{
		NumVars: 1,
		Cost:    []float64{0},
		Rows: []Row{
			{Entries: []Entry{{0, 1}}, RHS: 1},
			{Entries: []Entry{{0, -1}}, RHS: 0},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status=%v want infeasible", sol.Status)
	}
}

func TestInfeasibleByBounds(t *testing.T) {
	// x0 + x1 >= 3 with x ∈ [0,1]^2: infeasible.
	p := &Problem{
		NumVars: 2,
		Cost:    []float64{1, 1},
		Rows:    []Row{{Entries: []Entry{{0, 1}, {1, 1}}, RHS: 3}},
	}
	sol := solveOK(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status=%v want infeasible", sol.Status)
	}
}

func TestCustomBounds(t *testing.T) {
	// Fix x0 = 1 via bounds; min x0 + x1 s.t. x0 + x1 >= 1 ⇒ obj 1, x1 = 0.
	p := &Problem{
		NumVars: 2,
		Cost:    []float64{1, 1},
		Rows:    []Row{{Entries: []Entry{{0, 1}, {1, 1}}, RHS: 1}},
		Lo:      []float64{1, 0},
		Hi:      []float64{1, 1},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.X[0]-1) > 1e-6 || math.Abs(sol.X[1]) > 1e-6 {
		t.Fatalf("got %+v", sol)
	}
}

func TestNegativeRHS(t *testing.T) {
	// −x0 ≥ −1 (x0 ≤ 1): always true within bounds; min −x0 ⇒ x0 = 1.
	p := &Problem{
		NumVars: 1,
		Cost:    []float64{-1},
		Rows:    []Row{{Entries: []Entry{{0, -1}}, RHS: -1}},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.X[0]-1) > 1e-6 {
		t.Fatalf("got %+v", sol)
	}
}

func TestDuplicateEntriesMerged(t *testing.T) {
	// x0 + x0 >= 1 ⇔ 2x0 >= 1 ⇒ x0 = 0.5 at optimum of min x0.
	p := &Problem{
		NumVars: 1,
		Cost:    []float64{1},
		Rows:    []Row{{Entries: []Entry{{0, 1}, {0, 1}}, RHS: 1}},
	}
	sol := solveOK(t, p)
	if math.Abs(sol.X[0]-0.5) > 1e-6 {
		t.Fatalf("x=%v", sol.X)
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := Solve(&Problem{NumVars: 1, Cost: []float64{1, 2}}); err == nil {
		t.Fatal("expected cost length error")
	}
	if _, err := Solve(&Problem{NumVars: 1, Cost: []float64{1},
		Rows: []Row{{Entries: []Entry{{5, 1}}, RHS: 0}}}); err == nil {
		t.Fatal("expected var range error")
	}
	if _, err := Solve(&Problem{NumVars: 1, Cost: []float64{math.NaN()}}); err == nil {
		t.Fatal("expected NaN error")
	}
	sol, err := Solve(&Problem{NumVars: 1, Cost: []float64{1}, Lo: []float64{2}, Hi: []float64{1}})
	if err != nil || sol.Status != Infeasible {
		t.Fatalf("crossed bounds: %+v %v", sol, err)
	}
	// A variable starts at its lower bound, so an infinite one would put
	// 0·(−Inf) = NaN into every row's residual, even for an unused column.
	if _, err := Solve(&Problem{NumVars: 2, Cost: []float64{0, 1},
		Rows: []Row{{Entries: []Entry{{1, 1}}, RHS: 1}},
		Lo:   []float64{math.Inf(-1), 0}, Hi: []float64{1, 1}}); err == nil {
		t.Fatal("expected infinite lower bound error")
	}
}

// brute-force LP check on 0/1-bounded problems: sample the vertices of the
// hypercube plus a fine grid for 2-variable problems.
func bruteLP2(p *Problem) (best float64, feasible bool) {
	best = math.Inf(1)
	const steps = 200
	for i := 0; i <= steps; i++ {
		for j := 0; j <= steps; j++ {
			x0, x1 := float64(i)/steps, float64(j)/steps
			ok := true
			for _, r := range p.Rows {
				lhs := 0.0
				for _, e := range r.Entries {
					v := x0
					if e.Var == 1 {
						v = x1
					}
					lhs += e.Coef * v
				}
				if lhs < r.RHS-1e-9 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			feasible = true
			obj := p.Cost[0]*x0 + p.Cost[1]*x1
			if obj < best {
				best = obj
			}
		}
	}
	return best, feasible
}

func TestRandom2VarAgainstGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		p := &Problem{
			NumVars: 2,
			Cost:    []float64{float64(rng.Intn(11) - 5), float64(rng.Intn(11) - 5)},
		}
		m := 1 + rng.Intn(4)
		for i := 0; i < m; i++ {
			p.Rows = append(p.Rows, Row{
				Entries: []Entry{{0, float64(rng.Intn(9) - 4)}, {1, float64(rng.Intn(9) - 4)}},
				RHS:     float64(rng.Intn(7) - 3),
			})
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		want, feasible := bruteLP2(p)
		if !feasible {
			if sol.Status != Infeasible {
				t.Fatalf("iter %d: grid says infeasible, solver says %v", iter, sol.Status)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("iter %d: status %v (grid feasible, best %v)", iter, sol.Status, want)
		}
		// The grid is a coarse over-approximation: the simplex optimum must
		// not exceed the grid optimum by more than grid resolution error and
		// must not be significantly below the true optimum (grid best is
		// within ~0.1 of truth for our coefficient ranges).
		if sol.Objective > want+0.1 || sol.Objective < want-0.15 {
			t.Fatalf("iter %d: obj=%v grid=%v (%+v)", iter, sol.Objective, want, p)
		}
	}
}

// Property: on random covering-style LPs (non-negative coefficients) the
// optimum is a valid lower bound for every feasible 0/1 point.
func TestLPBoundsIntegerSolutions(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(5)
		p := &Problem{NumVars: n, Cost: make([]float64, n)}
		for j := 0; j < n; j++ {
			p.Cost[j] = float64(rng.Intn(10))
		}
		m := 1 + rng.Intn(5)
		for i := 0; i < m; i++ {
			var ents []Entry
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					ents = append(ents, Entry{j, float64(1 + rng.Intn(4))})
				}
			}
			if len(ents) == 0 {
				continue
			}
			p.Rows = append(p.Rows, Row{Entries: ents, RHS: float64(1 + rng.Intn(3))})
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		// Enumerate 0/1 points.
		bestInt := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			for _, r := range p.Rows {
				lhs := 0.0
				for _, e := range r.Entries {
					if mask&(1<<e.Var) != 0 {
						lhs += e.Coef
					}
				}
				if lhs < r.RHS {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			obj := 0.0
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					obj += p.Cost[j]
				}
			}
			if obj < bestInt {
				bestInt = obj
			}
		}
		if math.IsInf(bestInt, 1) {
			continue // integer-infeasible; LP may or may not be feasible
		}
		if sol.Status != Optimal {
			t.Fatalf("iter %d: integer-feasible but LP status %v", iter, sol.Status)
		}
		if sol.Objective > bestInt+1e-6 {
			t.Fatalf("iter %d: LP obj %v exceeds integer optimum %v", iter, sol.Objective, bestInt)
		}
	}
}

// Duals: complementary slackness and sign at optimality on covering LPs.
func TestDualProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(4)
		p := &Problem{NumVars: n, Cost: make([]float64, n)}
		for j := 0; j < n; j++ {
			p.Cost[j] = float64(1 + rng.Intn(9))
		}
		m := 1 + rng.Intn(4)
		for i := 0; i < m; i++ {
			var ents []Entry
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					ents = append(ents, Entry{j, float64(1 + rng.Intn(3))})
				}
			}
			if len(ents) == 0 {
				ents = []Entry{{rng.Intn(n), 1}}
			}
			p.Rows = append(p.Rows, Row{Entries: ents, RHS: 1})
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			continue
		}
		for i := range sol.Dual {
			if sol.Dual[i] < -1e-6 {
				t.Fatalf("iter %d: negative dual %v", iter, sol.Dual[i])
			}
			// Complementary slackness: positive dual ⇒ tight row.
			if sol.Dual[i] > 1e-4 && sol.Slack[i] > 1e-4 {
				t.Fatalf("iter %d: dual %v with slack %v", iter, sol.Dual[i], sol.Slack[i])
			}
		}
		// Weak duality: Σ y_i b_i ≤ objective (for covering LPs with x ≤ 1
		// the bound needs the upper-bound duals; check only that the dual
		// value does not exceed the objective by more than tolerance when
		// no variable is at its upper bound).
		atUpper := false
		for j := 0; j < n; j++ {
			if sol.X[j] > 1-1e-7 {
				atUpper = true
			}
		}
		if !atUpper {
			dualVal := 0.0
			for i, r := range p.Rows {
				dualVal += sol.Dual[i] * r.RHS
			}
			if dualVal > sol.Objective+1e-5 {
				t.Fatalf("iter %d: dual value %v > primal %v", iter, dualVal, sol.Objective)
			}
		}
	}
}

func TestLargerCoveringLP(t *testing.T) {
	// A 50-var, 80-row random covering LP: must solve to optimality and give
	// a bound ≤ greedy integer solution.
	rng := rand.New(rand.NewSource(5))
	n, m := 50, 80
	p := &Problem{NumVars: n, Cost: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.Cost[j] = float64(1 + rng.Intn(20))
	}
	for i := 0; i < m; i++ {
		var ents []Entry
		for j := 0; j < n; j++ {
			if rng.Intn(8) == 0 {
				ents = append(ents, Entry{j, float64(1 + rng.Intn(3))})
			}
		}
		if len(ents) == 0 {
			ents = []Entry{{rng.Intn(n), 1}}
		}
		p.Rows = append(p.Rows, Row{Entries: ents, RHS: 1})
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status=%v after %d iters", sol.Status, sol.Iterations)
	}
	// All-ones is feasible; objective must be ≤ total cost.
	var total float64
	for _, c := range p.Cost {
		total += c
	}
	if sol.Objective <= 0 || sol.Objective > total {
		t.Fatalf("objective %v outside (0,%v]", sol.Objective, total)
	}
	// Feasibility of the LP point.
	for i := range sol.Slack {
		if sol.Slack[i] < -1e-6 {
			t.Fatalf("row %d violated: slack %v", i, sol.Slack[i])
		}
	}
}

func TestEqualityViaTwoRows(t *testing.T) {
	// x0 + x1 = 1 expressed as >= and <= (negated >=): optimum of
	// min 3x0 + x1 is x1 = 1, obj 1.
	p := &Problem{
		NumVars: 2,
		Cost:    []float64{3, 1},
		Rows: []Row{
			{Entries: []Entry{{0, 1}, {1, 1}}, RHS: 1},
			{Entries: []Entry{{0, -1}, {1, -1}}, RHS: -1},
		},
	}
	sol := solveOK(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-1) > 1e-6 {
		t.Fatalf("got %+v", sol)
	}
}

func TestIterLimit(t *testing.T) {
	p := &Problem{
		NumVars: 3,
		Cost:    []float64{1, 1, 1},
		Rows: []Row{
			{Entries: []Entry{{0, 1}, {1, 1}}, RHS: 1},
			{Entries: []Entry{{1, 1}, {2, 1}}, RHS: 1},
		},
		MaxIter: 1,
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit {
		t.Fatalf("status=%v want iterlimit", sol.Status)
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || IterLimit.String() != "iterlimit" {
		t.Fatal("status strings wrong")
	}
}
