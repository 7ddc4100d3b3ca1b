// Command pbfuzz is the bulk driver of the differential fuzzing harness: it
// generates adversarial OPB instances (internal/gen.AdversarialOPB), runs
// each through internal/fuzz.Check — every lower-bound method, both search
// strategies, the ablation toggles, and the cooperative/isolated portfolio,
// all under the internal/audit invariant auditor and against the brute-force
// oracle — and shrinks any mismatch to a minimal reproducer.
//
// Reproducers are written to -out (default testdata/fuzz-corpus/) with the
// mismatch list in the header comment; TestFuzzCorpus replays that directory
// on every `go test` run, so a finding stays a regression test forever.
//
// Usage:
//
//	pbfuzz [-n 1000] [-seed 1] [-vars 6] [-rows 5] [-budget 50000] [-out dir]
//
// Exit status: 0 clean, 1 findings written, 2 usage/setup error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/fuzz"
	"repro/internal/gen"
	"repro/internal/opb"
	"repro/internal/pb"
)

func main() {
	var (
		n        = flag.Int("n", 1000, "number of instances to generate")
		seed     = flag.Int64("seed", 1, "base seed (instance i uses seed+i)")
		vars     = flag.Int("vars", 0, "variables per instance (0 = generator default)")
		rows     = flag.Int("rows", 0, "constraint rows per instance (0 = generator default)")
		budget   = flag.Int64("budget", 0, "per-configuration conflict budget (0 = fuzz.DefaultBudget)")
		out      = flag.String("out", filepath.Join("testdata", "fuzz-corpus"), "directory for shrunk reproducers")
		maxTime  = flag.Duration("time", 0, "wall-clock cap for the whole run (0 = none)")
		verbose  = flag.Bool("v", false, "log every instance, not just findings")
		hugeProb = flag.Float64("huge", 0, "probability of near-MaxInt64 coefficients (0 = generator default)")
	)
	flag.Parse()

	start := time.Now()
	findings := 0
	parsed, skipped := 0, 0
	for i := 0; i < *n; i++ {
		if *maxTime > 0 && time.Since(start) > *maxTime {
			fmt.Fprintf(os.Stderr, "c time cap reached after %d instances\n", i)
			break
		}
		s := *seed + int64(i)
		text := gen.AdversarialOPB(gen.AdversarialConfig{
			Vars: *vars, Rows: *rows, Seed: s, HugeProb: *hugeProb,
		})
		p, err := opb.ParseString(text)
		if err != nil {
			skipped++ // structured rejection (overflow &c.) — intended outcome
			if *verbose {
				fmt.Printf("c seed %d: rejected by parser: %v\n", s, err)
			}
			continue
		}
		parsed++
		ms := fuzz.Check(p, *budget)
		if len(ms) == 0 {
			if *verbose {
				fmt.Printf("c seed %d: clean\n", s)
			}
			continue
		}
		findings++
		small, sms := fuzz.ShrinkFailure(p, ms, *budget)
		fmt.Fprintf(os.Stderr, "c seed %d: %d mismatch(es), shrunk %d->%d constraints\n",
			s, len(ms), len(p.Constraints), len(small.Constraints))
		for _, m := range sms {
			fmt.Fprintf(os.Stderr, "c   %s\n", m)
		}
		if err := save(*out, s, small, sms); err != nil {
			fmt.Fprintf(os.Stderr, "error saving reproducer: %v\n", err)
			os.Exit(2)
		}
	}
	fmt.Printf("c pbfuzz: %d generated, %d parsed, %d rejected, %d finding(s) in %v\n",
		*n, parsed, skipped, findings, time.Since(start).Round(time.Millisecond))
	if findings > 0 {
		os.Exit(1)
	}
}

// save writes the shrunk reproducer with its mismatch list as the header
// comment, named by the generating seed.
func save(dir string, seed int64, p *pb.Problem, ms []fuzz.Mismatch) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "* pbfuzz reproducer, seed %d\n", seed)
	for _, m := range ms {
		fmt.Fprintf(&sb, "* mismatch %s\n", m)
	}
	sb.WriteString(opb.WriteString(p))
	name := filepath.Join(dir, fmt.Sprintf("seed-%d.opb", seed))
	return os.WriteFile(name, []byte(sb.String()), 0o644)
}
