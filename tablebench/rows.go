package main

import (
	"bytes"
	"fmt"

	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/opb"
	"repro/internal/pb"
)

// defaultSeed reproduces harness.Instances: row k of every family is
// generated with seed 1000·k + 7 there, and 1000·k + seed here.
const defaultSeed = 7

// input is one benchmark row as the solver receives it: text in the format
// its reader expects. Only the parsed form of text is ever solved.
type input struct {
	name     string
	text     []byte
	weighted bool // soft OPB (wcnf.ParseWBO) rather than plain OPB (opb.Parse)
}

// genSeed derives the generator seed of row k from the workload seed.
func genSeed(seed int64, k int) int64 { return 1000*int64(k) + seed }

// table1Inputs generates sets copies of the four Table 1 families (grout,
// synth, mcnc, acc) with the size formulas of harness.Instances at scale sc,
// each row written as OPB text. Copy j draws its rows from the workload seed
// shifted by j·setStride, so copy 0 is the Table 1 suite itself.
func table1Inputs(seed int64, sc harness.Scale, sets int) ([]input, error) {
	var out []input
	for j := 0; j < sets; j++ {
		rows, err := table1Set(seed+int64(j)*setStride, sc)
		if err != nil {
			return nil, err
		}
		for i := range rows {
			if j > 0 {
				rows[i].name += fmt.Sprintf(".%d", j)
			}
		}
		out = append(out, rows...)
	}
	return out, nil
}

// setStride separates the generator seeds of the Table 1 copies: row seeds
// within one copy span less than 1000·PerFamily.
const setStride = 1_000_000

// table1Set generates one copy of the Table 1 suite.
func table1Set(seed int64, sc harness.Scale) ([]input, error) {
	var out []input
	for _, fam := range harness.Families() {
		for k := 0; k < sc.PerFamily; k++ {
			s := genSeed(seed, k)
			var (
				p    *pb.Problem
				err  error
				name string
			)
			switch fam {
			case harness.FamilyGrout:
				nets := sc.GroutNets - 6 + (k*12)/sc.PerFamily
				if nets < 4 {
					nets = 4
				}
				name = fmt.Sprintf("grout-%d-%d", nets, k+1)
				p, err = gen.Grout(gen.GroutConfig{Width: 5, Height: 5, Nets: nets,
					PathsPerNet: 6, Capacity: 2, Seed: s})
			case harness.FamilySynth:
				nodes := sc.SynthNodes - 4 + k
				if nodes < 4 {
					nodes = 4
				}
				name = fmt.Sprintf("synth-%d-%d", nodes, k+1)
				p, err = gen.Synthesis(gen.SynthesisConfig{Nodes: nodes, Impls: 4,
					Fanout: 2.0, Incompat: 0.5, Seed: s})
			case harness.FamilyMcnc:
				inputs := sc.McncInputs
				switch {
				case sc.McncInputs >= 8 && k >= sc.PerFamily-1:
					inputs = sc.McncInputs + 2
				case sc.McncInputs >= 8 && k >= sc.PerFamily/2:
					inputs = sc.McncInputs + 1
				}
				name = fmt.Sprintf("mcnc-%d-%d", inputs, k+1)
				p, err = gen.MinCover(gen.MinCoverConfig{Inputs: inputs,
					OnDensity: 0.3, DcDensity: 0.1, Seed: s})
			case harness.FamilyAcc:
				name = fmt.Sprintf("acc-tight-%d-%d", sc.AccTeams, k+1)
				p, err = gen.ACC(gen.ACCConfig{Teams: sc.AccTeams,
					FixedMatches: 2 + k%4, ForbiddenMatches: 6 + 2*k, Seed: s})
			}
			if err != nil {
				return nil, fmt.Errorf("generating %s: %w", name, err)
			}
			out = append(out, input{name: name, text: []byte(opb.WriteString(p))})
		}
	}
	return out, nil
}

// wboInputs generates n weighted rows of about vars variables, written as
// soft OPB text.
func wboInputs(seed int64, n, vars int) ([]input, error) {
	var out []input
	for k := 0; k < n; k++ {
		v := vars + k%5
		in, err := gen.WBO(gen.WBOConfig{Vars: v, Seed: genSeed(seed, k)})
		if err != nil {
			return nil, fmt.Errorf("generating wbo row %d: %w", k, err)
		}
		var buf bytes.Buffer
		if err := writeWBO(&buf, in); err != nil {
			return nil, err
		}
		out = append(out, input{name: fmt.Sprintf("wbo-%d-%d", v, k+1), text: buf.Bytes(), weighted: true})
	}
	return out, nil
}
