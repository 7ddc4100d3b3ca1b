package harness

import (
	"slices"
	"strings"
	"testing"
	"time"
)

func smallScale() Scale {
	return Scale{GroutNets: 4, SynthNodes: 6, McncInputs: 4, AccTeams: 4, PerFamily: 2}
}

func TestInstancesGenerate(t *testing.T) {
	insts, err := Instances(Families(), smallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 8 {
		t.Fatalf("instances=%d want 8", len(insts))
	}
	for _, in := range insts {
		if err := in.Prob.Validate(); err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if in.Family == FamilyAcc && in.Prob.HasObjective() {
			t.Fatalf("%s: acc must have no objective", in.Name)
		}
		if in.Family != FamilyAcc && !in.Prob.HasObjective() {
			t.Fatalf("%s: optimization family without objective", in.Name)
		}
	}
}

func TestInstancesDeterministic(t *testing.T) {
	a, err := Instances([]Family{FamilyGrout}, smallScale())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Instances([]Family{FamilyGrout}, smallScale())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Prob.NumVars != b[i].Prob.NumVars ||
			len(a[i].Prob.Constraints) != len(b[i].Prob.Constraints) {
			t.Fatalf("instance %d not deterministic", i)
		}
	}
}

func TestRunMatrixSmall(t *testing.T) {
	insts, err := Instances(Families(), smallScale())
	if err != nil {
		t.Fatal(err)
	}
	lim := Limits{Time: 5 * time.Second, MaxConflicts: 100000, MilpNodes: 100000}
	results := RunMatrix(insts, Solvers(), lim)
	if len(results) != len(insts)*len(Solvers()) {
		t.Fatalf("results=%d", len(results))
	}
	// At this tiny scale everything must solve, and all solvers that solved
	// an instance must agree on the optimum.
	byInstance := map[string]int64{}
	for _, r := range results {
		if !r.Solved {
			t.Fatalf("%s/%s unsolved at tiny scale", r.Instance, r.Solver)
		}
		if r.Family == FamilyAcc {
			continue // satisfaction: no objective to compare
		}
		if prev, ok := byInstance[r.Instance]; ok {
			if prev != r.Best {
				t.Fatalf("%s: optimum disagreement %d vs %d (%s)", r.Instance, prev, r.Best, r.Solver)
			}
		} else {
			byInstance[r.Instance] = r.Best
		}
	}
}

func TestFormatTable(t *testing.T) {
	results := []RunResult{
		{Instance: "a", Solver: SolverPBS, Solved: true, Duration: 12 * time.Millisecond},
		{Instance: "a", Solver: SolverLPR, Solved: true, Duration: time.Second},
		{Instance: "b", Solver: SolverPBS, HasUB: true, Best: 42},
		{Instance: "b", Solver: SolverLPR, Solved: true, Duration: 100 * time.Microsecond},
	}
	out := FormatTable(results, []SolverID{SolverPBS, SolverLPR})
	if !strings.Contains(out, "ub 42") {
		t.Fatalf("missing ub entry:\n%s", out)
	}
	if !strings.Contains(out, "#Solved") {
		t.Fatalf("missing summary row:\n%s", out)
	}
	counts := SolvedCounts(results)
	if counts[SolverPBS] != 1 || counts[SolverLPR] != 2 {
		t.Fatalf("counts=%v", counts)
	}
}

func TestFormatCSV(t *testing.T) {
	results := []RunResult{
		{Instance: "a", Family: FamilyGrout, Solver: SolverLPR, Solved: true, HasUB: true, Best: 7, Duration: 1500 * time.Microsecond},
		{Instance: "b", Family: FamilyAcc, Solver: SolverPBS},
	}
	out := FormatCSV(results)
	if !strings.Contains(out, "a,grout,lpr,true,7,1.50") {
		t.Fatalf("csv wrong:\n%s", out)
	}
	if !strings.Contains(out, "b,acc,pbs,false,,") {
		t.Fatalf("csv wrong:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != 3 {
		t.Fatalf("lines=%d want 3 (header + 2 rows)", lines)
	}
}

func TestRunAblationSmall(t *testing.T) {
	sc := Scale{GroutNets: 4, SynthNodes: 6, McncInputs: 4, PerFamily: 1}
	for _, id := range Ablations() {
		insts, err := AblationInstances(id, sc)
		if err != nil {
			t.Fatal(err)
		}
		rows := RunAblation(id, insts, 5*time.Second, 100000)
		if len(rows) < 2 {
			t.Fatalf("%s: %d variants", id, len(rows))
		}
		for _, r := range rows {
			if r.Total != len(insts) {
				t.Fatalf("%s/%s: total=%d want %d", id, r.Variant, r.Total, len(insts))
			}
			if r.Solved != r.Total {
				t.Fatalf("%s/%s: tiny suite must solve fully (%d/%d)", id, r.Variant, r.Solved, r.Total)
			}
		}
	}
	insts, err := AblationInstances(AblationKnapsack, sc)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatAblations(RunAblation(AblationKnapsack, insts, 5*time.Second, 100000))
	if !strings.Contains(out, "knapsack-cut") || !strings.Contains(out, "no-cut") {
		t.Fatalf("format missing variants:\n%s", out)
	}
}

func TestSatFamilyAndLSColumns(t *testing.T) {
	insts, err := Instances([]Family{FamilySat}, Scale{SatNodes: 10, PerFamily: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 2 {
		t.Fatalf("instances=%d want 2", len(insts))
	}
	for _, in := range insts {
		if err := in.Prob.Validate(); err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if !in.Prob.HasObjective() {
			t.Fatalf("%s: sat family is an optimization family", in.Name)
		}
	}
	// Note the short clock: a standalone UB-only worker has nothing to prove
	// and therefore always runs out its budget.
	lim := Limits{Time: time.Second, MaxConflicts: 50000}
	solvers := []SolverID{SolverLPR, SolverLS, SolverPortfolioLS}
	results := RunMatrix(insts, solvers, lim)
	opt := map[string]int64{}
	for _, r := range results {
		if r.Solver == SolverLPR {
			if !r.Solved {
				t.Fatalf("%s/lpr unsolved at tiny scale", r.Instance)
			}
			opt[r.Instance] = r.Best
		}
	}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("%s/%s: %s", r.Instance, r.Solver, r.Err)
		}
		switch r.Solver {
		case SolverLS:
			// UB-only: never "solved" on an optimization instance, but the
			// tiny always-feasible instances must yield an incumbent, and it
			// must never undercut the exact optimum.
			if r.Solved {
				t.Fatalf("%s/ls claims solved on an optimization instance", r.Instance)
			}
			if !r.HasUB {
				t.Fatalf("%s/ls found no incumbent on a feasible instance", r.Instance)
			}
			if r.Best < opt[r.Instance] {
				t.Fatalf("%s/ls incumbent %d undercuts optimum %d", r.Instance, r.Best, opt[r.Instance])
			}
			if r.Flips == 0 {
				t.Fatalf("%s/ls reports zero flips", r.Instance)
			}
			if r.FirstIncumbent <= 0 {
				t.Fatalf("%s/ls has an incumbent but no first-incumbent stamp", r.Instance)
			}
		case SolverPortfolioLS:
			if !r.Solved || r.Best != opt[r.Instance] {
				t.Fatalf("%s/portfolio-ls: solved=%t best=%d want optimum %d",
					r.Instance, r.Solved, r.Best, opt[r.Instance])
			}
			if r.Members != 5 {
				t.Fatalf("%s/portfolio-ls: members=%d want 5", r.Instance, r.Members)
			}
			if r.FirstIncumbent <= 0 {
				t.Fatalf("%s/portfolio-ls solved but has no first-incumbent stamp", r.Instance)
			}
		}
	}
	// The new CSV columns round-trip: an ls row carries ttfiMs and flips.
	csv := FormatCSV(results)
	if !strings.Contains(csv, ",ttfiMs,flips\n") {
		t.Fatalf("csv header missing incumbent-latency columns:\n%s", csv)
	}
	for _, r := range results {
		row := r.BenchRow()
		if time.Duration(r.FirstIncumbent) > 0 && row.TtfiMs <= 0 {
			t.Fatalf("%s/%s: BenchRow dropped ttfi", r.Instance, r.Solver)
		}
		if row.Flips != r.Flips {
			t.Fatalf("%s/%s: BenchRow flips=%d want %d", r.Instance, r.Solver, row.Flips, r.Flips)
		}
	}
}

func TestParseSolvers(t *testing.T) {
	got, err := ParseSolvers(" lpr , portfolio-wbo,pbs")
	if want := []SolverID{SolverLPR, SolverPortfolioWbo, SolverPBS}; err != nil || !slices.Equal(got, want) {
		t.Fatalf("ParseSolvers = %v, %v", got, err)
	}
	for _, bad := range []string{"", "foo", "lpr,", ",lpr", "LPR"} {
		if _, err := ParseSolvers(bad); err == nil {
			t.Errorf("ParseSolvers(%q) accepted", bad)
		}
	}
}
