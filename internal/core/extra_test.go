package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/pb"
)

func TestOnIncumbentMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 30; iter++ {
		p := randomPBO(rng, 8, 8)
		if !pb.BruteForce(p).Feasible {
			continue
		}
		var seen []int64
		res := Solve(p, Options{
			LowerBound:  LBMIS,
			OnIncumbent: func(best int64) { seen = append(seen, best) },
		})
		if res.Status != StatusOptimal {
			t.Fatalf("iter %d: %v", iter, res.Status)
		}
		if len(seen) == 0 {
			t.Fatalf("iter %d: no incumbent reported", iter)
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] >= seen[i-1] {
				t.Fatalf("iter %d: incumbents not strictly improving: %v", iter, seen)
			}
		}
		if seen[len(seen)-1] != res.Best {
			t.Fatalf("iter %d: last incumbent %d != final best %d", iter, seen[len(seen)-1], res.Best)
		}
	}
}

func TestTimeLimitHonored(t *testing.T) {
	// An mcnc-like covering instance too big to solve in a millisecond.
	rng := rand.New(rand.NewSource(12))
	const n = 60
	p := pb.NewProblem(n)
	for v := 0; v < n; v++ {
		p.SetCost(pb.Var(v), int64(1+rng.Intn(20)))
	}
	for i := 0; i < 120; i++ {
		var lits []pb.Lit
		for v := 0; v < n; v++ {
			if rng.Intn(10) == 0 {
				lits = append(lits, pb.PosLit(pb.Var(v)))
			}
		}
		if len(lits) == 0 {
			lits = append(lits, pb.PosLit(pb.Var(rng.Intn(n))))
		}
		_ = p.AddClause(lits...)
	}
	start := time.Now()
	res := Solve(p, Options{LowerBound: LBNone, Deadline: start.Add(50 * time.Millisecond)})
	elapsed := time.Since(start)
	if res.Status == StatusLimit && elapsed > 2*time.Second {
		t.Fatalf("time limit ignored: ran %v", elapsed)
	}
	// Whatever the status, any reported solution must be feasible.
	if res.HasSolution && !p.Feasible(res.Values) {
		t.Fatal("reported infeasible incumbent")
	}
}

func TestPBLearningStatsCounted(t *testing.T) {
	// Conflict-rich 3-SAT near the phase transition mixed with PB budget
	// rows: the cutting-plane analysis fires and retains constraints.
	rng := rand.New(rand.NewSource(44))
	var totalPB int64
	for iter := 0; iter < 40; iter++ {
		n := 12
		p := pb.NewProblem(n)
		for i := 0; i < 52; i++ {
			lits := make([]pb.Lit, 3)
			for k := range lits {
				lits[k] = pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0)
			}
			_ = p.AddClause(lits...)
		}
		for i := 0; i < 3; i++ {
			terms := make([]pb.Term, 5)
			var sum int64
			for k := range terms {
				c := int64(1 + rng.Intn(4))
				sum += c
				terms[k] = pb.Term{Coef: c, Lit: pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0)}
			}
			_ = p.AddConstraint(terms, pb.GE, 1+rng.Int63n(sum-1))
		}
		res := Solve(p, Options{MaxConflicts: 50000, Tuning: Tuning{PBLearning: true}})
		totalPB += res.Stats.PBLearned
	}
	if totalPB == 0 {
		t.Fatal("PB learning never derived a constraint across 40 instances")
	}
}

// TestMaxPBLearnedCap lowers the package-level cap, so it must not run in
// parallel with other core tests.
func TestMaxPBLearnedCap(t *testing.T) {
	defer func(old int64) { maxPBLearned = old }(maxPBLearned)
	maxPBLearned = 3
	rng := rand.New(rand.NewSource(45))
	for iter := 0; iter < 20; iter++ {
		p := randomPBO(rng, 10, 14)
		res := Solve(p, Options{MaxConflicts: 50000, Tuning: Tuning{PBLearning: true}})
		if res.Stats.PBLearned > 3 {
			t.Fatalf("cap violated: %d", res.Stats.PBLearned)
		}
	}
}

func TestValuesLengthAlwaysNumVars(t *testing.T) {
	p := pb.NewProblem(5)
	p.SetCost(0, 1)
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
	res := Solve(p, Options{LowerBound: LBLPR})
	if res.Status != StatusOptimal || len(res.Values) != 5 {
		t.Fatalf("values=%v", res.Values)
	}
}
