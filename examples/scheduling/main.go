// Scheduling: the paper's acc-tight family — pseudo-Boolean *satisfaction*
// with no cost function. Build a tight round-robin tournament scheduling
// instance, solve it, and print the schedule. With no objective, all four
// bsolo lower-bound configurations behave identically (Table 1, footnote a)
// — this example demonstrates that.
//
//	go run ./examples/scheduling
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

func main() {
	const teams = 8
	prob, err := gen.ACC(gen.ACCConfig{
		Teams:            teams,
		FixedMatches:     5,
		ForbiddenMatches: 12,
		Seed:             7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduling instance: %d variables, %d constraints, no objective\n",
		prob.NumVars, len(prob.Constraints))

	for _, method := range []core.Method{core.LBNone, core.LBMIS, core.LBLGR, core.LBLPR} {
		start := time.Now()
		// The deadline bounds the whole solve at 30 s.
		res := core.Solve(prob, core.Options{LowerBound: method, Deadline: time.Now().Add(30 * time.Second)})
		fmt.Printf("  bsolo-%-6s %v in %v (bound calls: %d — always 0 without a cost function)\n",
			method, res.Status, time.Since(start).Round(time.Millisecond), res.Stats.BoundCalls)
		if method != core.LBLPR {
			continue
		}
		if res.Status != core.StatusSatisfiable {
			log.Fatalf("instance should be satisfiable, got %v", res.Status)
		}
		printSchedule(teams, res.Values)
	}
}

// printSchedule decodes x_{i,j,r} (the gen.ACC variable layout) into a
// round-by-round pairing table.
func printSchedule(teams int, values []bool) {
	rounds := teams - 1
	var pairs [][2]int
	for i := 0; i < teams; i++ {
		for j := i + 1; j < teams; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	fmt.Println("\nschedule:")
	for r := 0; r < rounds; r++ {
		fmt.Printf("  round %d:", r+1)
		for pi, pr := range pairs {
			if values[pi*rounds+r] {
				fmt.Printf("  %d-%d", pr[0], pr[1])
			}
		}
		fmt.Println()
	}
}
