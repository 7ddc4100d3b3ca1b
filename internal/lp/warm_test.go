package lp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fault"
)

// keysFor builds the trivial identity keys for a standalone problem.
func keysFor(p *Problem) (varKeys, rowKeys []int64) {
	varKeys = make([]int64, p.NumVars)
	for j := range varKeys {
		varKeys[j] = int64(j)
	}
	rowKeys = make([]int64, len(p.Rows))
	for i := range rowKeys {
		rowKeys[i] = int64(1000 + i)
	}
	return
}

// solveWarmFrom solves p in a fresh Workspace that starts from prev and
// returns the basis the solve leaves for the next call.
func solveWarmFrom(p *Problem, varKeys, rowKeys []int64, prev *basis) (Solution, *basis, error) {
	w := Workspace{basis: prev}
	sol, err := w.SolveWarm(p, varKeys, rowKeys)
	return sol, w.basis, err
}

func TestWarmResolveSameProblem(t *testing.T) {
	p := &Problem{
		NumVars: 3,
		Cost:    []float64{1, 2, 3},
		Rows: []Row{
			{Entries: []Entry{{0, 2}, {1, 1}}, RHS: 1},
			{Entries: []Entry{{1, 1}, {2, 2}}, RHS: 1},
		},
	}
	vk, rk := keysFor(p)
	sol1, bas, err := solveWarmFrom(p, vk, rk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol1.Status != Optimal || sol1.Warm {
		t.Fatalf("cold solve: %+v", sol1)
	}
	if bas.len() == 0 {
		t.Fatal("no basis snapshot from cold solve")
	}
	sol2, bas2, err := solveWarmFrom(p, vk, rk, bas)
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Status != Optimal {
		t.Fatalf("warm solve status: %v", sol2.Status)
	}
	if !sol2.Warm {
		t.Fatal("identical re-solve did not take the warm path")
	}
	if math.Abs(sol2.Objective-sol1.Objective) > 1e-6 {
		t.Fatalf("warm objective %v != cold %v", sol2.Objective, sol1.Objective)
	}
	if bas2.len() == 0 {
		t.Fatal("no basis snapshot from warm solve")
	}
	// The warm re-solve of an unchanged problem should need almost no pivots:
	// the crash installs the optimal basis, the dual pass finds it feasible,
	// and the polish confirms optimality without entering.
	if sol2.Iterations > sol1.Iterations {
		t.Fatalf("warm used %d iterations, cold used %d", sol2.Iterations, sol1.Iterations)
	}
}

// dualLPLike builds a random instance shaped like the LPR dual LP: m y-vars
// with negative costs, n w-vars with unit costs, one row per w with its unit
// entry plus negated y coefficients, all variables in [0, +inf).
// Boundedness: the instance is bounded below iff every ray u ≥ 0 in y-space
// pays at least its reward, which holds when d_i ≤ Σ_j G_ij (each y's reward
// does not exceed its column sum); the generator enforces that.
func dualLPLike(rng *rand.Rand, m, n int) *Problem {
	p := &Problem{NumVars: m + n}
	p.Cost = make([]float64, m+n)
	for j := 0; j < n; j++ {
		p.Cost[m+j] = 1
	}
	inf := math.Inf(1)
	p.Lo = make([]float64, m+n)
	p.Hi = make([]float64, m+n)
	for j := range p.Hi {
		p.Hi[j] = inf
	}
	colSum := make([]float64, m)
	for j := 0; j < n; j++ {
		row := Row{RHS: -float64(1 + rng.Intn(4))}
		row.Entries = append(row.Entries, Entry{Var: m + j, Coef: 1})
		for i := 0; i < m; i++ {
			if rng.Float64() < 0.4 {
				c := float64(1 + rng.Intn(3))
				row.Entries = append(row.Entries, Entry{Var: i, Coef: -c})
				colSum[i] += c
			}
		}
		p.Rows = append(p.Rows, row)
	}
	for i := 0; i < m; i++ {
		if colSum[i] < 1 {
			// Ensure every y appears somewhere, or its reward must be zero.
			j := rng.Intn(n)
			p.Rows[j].Entries = append(p.Rows[j].Entries, Entry{Var: i, Coef: -1})
			colSum[i] += 1
		}
		p.Cost[i] = -float64(1 + rng.Intn(int(colSum[i])))
	}
	return p
}

// TestWarmMatchesColdAcrossPerturbations chains warm solves across a random
// walk of LPR-dual-shaped problems — dropping/adding rows and columns,
// nudging costs and RHS — and checks every warm objective against an
// independent cold solve. This is the node-to-node pattern of the search.
func TestWarmMatchesColdAcrossPerturbations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		m, n := 4+rng.Intn(3), 5+rng.Intn(4)
		p := dualLPLike(rng, m, n)
		vk, rk := keysFor(p)
		_, bas, err := solveWarmFrom(p, vk, rk, nil)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 10; step++ {
			// Perturb: drop a random row (a variable got assigned), nudge a
			// random y cost (degree clipping changed), or drop a y column.
			q := &Problem{NumVars: p.NumVars, Cost: append([]float64(nil), p.Cost...),
				Lo: p.Lo, Hi: p.Hi}
			qvk := append([]int64(nil), vk...)
			qrk := append([]int64(nil), rk...)
			for _, r := range p.Rows {
				q.Rows = append(q.Rows, Row{Entries: append([]Entry(nil), r.Entries...), RHS: r.RHS})
			}
			switch rng.Intn(3) {
			case 0:
				if len(q.Rows) > 2 {
					i := rng.Intn(len(q.Rows))
					q.Rows = append(q.Rows[:i], q.Rows[i+1:]...)
					qrk = append(qrk[:i], qrk[i+1:]...)
				}
			case 1:
				j := rng.Intn(q.NumVars)
				q.Cost[j] += float64(rng.Intn(3) - 1)
			case 2:
				i := rng.Intn(len(q.Rows))
				q.Rows[i].RHS -= float64(rng.Intn(2))
			}
			warm, bas2, err := solveWarmFrom(q, qvk, qrk, bas)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Solve(q)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("trial %d step %d: warm status %v, cold %v", trial, step, warm.Status, cold.Status)
			}
			if cold.Status == Optimal && math.Abs(warm.Objective-cold.Objective) > 1e-5 {
				t.Fatalf("trial %d step %d: warm obj %v, cold %v (warm=%v)",
					trial, step, warm.Objective, cold.Objective, warm.Warm)
			}
			p, vk, rk, bas = q, qvk, qrk, bas2
		}
	}
}

func TestWarmDualsStayNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := dualLPLike(rng, 5, 6)
	vk, rk := keysFor(p)
	_, bas, err := solveWarmFrom(p, vk, rk, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Cost[0] += 0.5 // weaken y_0's reward: the instance stays bounded
	sol, _, err := solveWarmFrom(p, vk, rk, bas)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	for i, d := range sol.Dual {
		if d < -1e-7 {
			t.Fatalf("dual[%d]=%v negative", i, d)
		}
	}
}

func TestWarmFallbackOnAlienBasis(t *testing.T) {
	p := &Problem{
		NumVars: 2,
		Cost:    []float64{1, 2},
		Rows:    []Row{{Entries: []Entry{{0, 1}, {1, 1}}, RHS: 1}},
	}
	vk, rk := keysFor(p)
	// A basis snapshotted under keys that do not exist in this problem: the
	// mapping gate must reject it and fall back cold.
	alien := &basis{
		rowKeys: []int64{rk[0]},
		ids:     []basicID{{key: 999}}, // row maps, but its basic variable's key does not
	}
	sol, _, err := solveWarmFrom(p, vk, rk, alien)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Warm {
		t.Fatal("alien basis should not produce a warm solve")
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-1) > 1e-6 {
		t.Fatalf("fallback solve wrong: %+v", sol)
	}
}

func TestWarmKeyLengthValidation(t *testing.T) {
	p := &Problem{NumVars: 2, Cost: []float64{1, 1}}
	if _, _, err := solveWarmFrom(p, []int64{0}, nil, nil); err == nil {
		t.Fatal("short varKeys accepted")
	}
	if _, _, err := solveWarmFrom(p, []int64{0, 1}, []int64{5}, nil); err == nil {
		t.Fatal("short rowKeys accepted")
	}
}

// TestWarmCrashCorruptionFallsBackCold arms the lp.warmcrash fault point so
// every mapped crash pivot reads as NaN: the per-row ladder must degrade to
// surplus/artificial columns and the solve must still terminate with the
// correct optimum (warm or cold — corruption must never change the answer).
func TestWarmCrashCorruptionFallsBackCold(t *testing.T) {
	defer fault.Reset()
	rng := rand.New(rand.NewSource(3))
	p := dualLPLike(rng, 4, 5)
	vk, rk := keysFor(p)
	_, bas, err := solveWarmFrom(p, vk, rk, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm("lp.warmcrash", fault.Spec{Kind: fault.KindCorrupt, Every: 1})
	sol, _, err := solveWarmFrom(p, vk, rk, bas)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-want.Objective) > 1e-6 {
		t.Fatalf("corrupted crash changed the answer: got %+v want obj %v", sol, want.Objective)
	}
	if hits, fires := fault.Counts("lp.warmcrash"); hits == 0 || fires == 0 {
		t.Fatalf("fault point never exercised: hits=%d fires=%d", hits, fires)
	}
}

// TestWarmEmptyProblemAndNoRows covers the degenerate shapes the search can
// produce (all rows satisfied at a node).
func TestWarmEmptyProblemAndNoRows(t *testing.T) {
	p := &Problem{NumVars: 1, Cost: []float64{1}}
	vk, rk := keysFor(p)
	sol, bas, err := solveWarmFrom(p, vk, rk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	// Feeding any basis into a rowless problem must stay on the cold path.
	sol2, _, err := solveWarmFrom(p, vk, rk, bas)
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Warm {
		t.Fatal("rowless problem took warm path")
	}
}

// TestWarmCrashStopsAtTheDeadline: a warm re-solve whose deadline has
// already passed stops its crash within 64 mapped columns and starts no cold
// solve — it returns IterLimit with no point and keeps no basis, which LPR
// reports as an incomplete bound.
func TestWarmCrashStopsAtTheDeadline(t *testing.T) {
	defer fault.Reset()
	p := dualLPLike(rand.New(rand.NewSource(5)), 100, 150)
	vk, rk := keysFor(p)
	crashPivots := func(w *Workspace) (Solution, int64) {
		t.Helper()
		fault.Arm("lp.warmcrash", fault.Spec{Kind: fault.KindCorrupt}) // counts, never fires
		defer fault.Disarm("lp.warmcrash")
		sol, err := w.SolveWarm(p, vk, rk)
		if err != nil {
			t.Fatal(err)
		}
		hits, _ := fault.Counts("lp.warmcrash")
		return sol, hits
	}

	var w Workspace
	if sol, err := w.SolveWarm(p, vk, rk); err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: %v %v", sol.Status, err)
	}
	if sol, hits := crashPivots(&w); !sol.Warm || hits <= 64 {
		t.Fatalf("re-solve without a deadline: warm=%t after %d crash pivots; the case needs a crash of more than 64", sol.Warm, hits)
	}

	p.Deadline = time.Now().Add(-time.Second)
	sol, hits := crashPivots(&w)
	if sol.Status != IterLimit || sol.X != nil || sol.Warm || sol.Iterations != 0 {
		t.Fatalf("re-solve past the deadline: %+v, want IterLimit with no point", sol)
	}
	if hits > 64 {
		t.Fatalf("crash pivoted %d columns past the deadline, want at most 64", hits)
	}
	if w.HasBasis() {
		t.Fatal("an abandoned re-solve kept a basis")
	}
}
