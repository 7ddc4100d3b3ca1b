// Routing: the workload that motivates the paper's grout benchmark family.
// Generate a congested global-routing instance (nets choosing candidate
// paths through a shared-capacity grid, minimizing wirelength) and compare
// plain branch-and-bound against LPR-driven lower bounding — the paper's
// headline effect.
//
//	go run ./examples/routing
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

func main() {
	prob, err := gen.Grout(gen.GroutConfig{
		Width: 5, Height: 5,
		Nets:        24,
		PathsPerNet: 6,
		Capacity:    2,
		Seed:        42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("routing instance: %d path variables, %d constraints\n",
		prob.NumVars, len(prob.Constraints))

	// Each solve gets 10 s of its own: the deadline covers the whole solve.
	budget := 10 * time.Second
	for _, cfg := range []struct {
		name string
		lb   core.Method
	}{
		{"plain (no lower bound)", core.LBNone},
		{"MIS lower bound", core.LBMIS},
		{"LPR lower bound", core.LBLPR},
	} {
		start := time.Now()
		res := core.Solve(prob, core.Options{LowerBound: cfg.lb, Deadline: start.Add(budget)})
		elapsed := time.Since(start).Round(time.Millisecond)
		switch res.Status {
		case core.StatusOptimal:
			fmt.Printf("%-24s optimal wirelength %d in %v (%d decisions, %d bound prunes)\n",
				cfg.name, res.Best, elapsed, res.Stats.Decisions, res.Stats.BoundPrunes)
		case core.StatusLimit:
			fmt.Printf("%-24s TIMEOUT after %v, best upper bound %d\n", cfg.name, elapsed, res.Best)
		default:
			fmt.Printf("%-24s %v\n", cfg.name, res.Status)
		}
	}
}
