package harness

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// tuningBackedElsewhere lists the core.Tuning fields that no ablation varies,
// each with what backs it instead.
var tuningBackedElsewhere = map[string]string{
	// The Galena column of Table 1 (baseline.Galena) and the fuzz matrix.
	"PBLearning": "paper column",
}

// TestEveryTuningFieldIsBacked: a core.Tuning switch stays only if some
// ablation compares its settings (two variants of one ablation differ in
// it) or the allowlist above names what else backs it.
func TestEveryTuningFieldIsBacked(t *testing.T) {
	varied := map[string]bool{}
	for _, id := range Ablations() {
		vs := ablationVariants(id)
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				a := reflect.ValueOf(vs[i].opt.Tuning)
				b := reflect.ValueOf(vs[j].opt.Tuning)
				for k := 0; k < a.NumField(); k++ {
					if !a.Field(k).Equal(b.Field(k)) {
						varied[a.Type().Field(k).Name] = true
					}
				}
			}
		}
	}
	typ := reflect.TypeOf(core.Tuning{})
	fields := map[string]bool{}
	for k := 0; k < typ.NumField(); k++ {
		name := typ.Field(k).Name
		fields[name] = true
		_, allowed := tuningBackedElsewhere[name]
		if !varied[name] && !allowed {
			t.Errorf("core.Tuning.%s is varied by no ablation and backed by nothing on the allowlist", name)
		}
	}
	for name := range tuningBackedElsewhere {
		if !fields[name] {
			t.Errorf("allowlist names %s, which core.Tuning no longer has", name)
		}
	}
}
