package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// fillCounters sets every exported field of the counter block v (recursing
// into nested blocks and one "lpr" entry of a per-estimator map) to a
// distinct non-zero value, and records under want the value the document
// must carry at each field's key path.
func fillCounters(t *testing.T, v reflect.Value, path string, next *int64, want map[string]any) {
	t.Helper()
	typ := v.Type()
	for i := 0; i < typ.NumField(); i++ {
		sf := typ.Field(i)
		key, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
		if !snakeCase.MatchString(key) {
			t.Errorf("%s%s: key %q is not snake_case (missing json tag?)", path, sf.Name, key)
			continue
		}
		p := path + key
		f := v.Field(i)
		*next++
		switch {
		case sf.Type == reflect.TypeOf(Duration(0)):
			f.SetInt(*next * int64(time.Microsecond))
			want[p] = float64(*next) / 1000
		case f.Kind() == reflect.Int || f.Kind() == reflect.Int64:
			f.SetInt(*next)
			want[p] = float64(*next)
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
			want[p] = true
		case f.Kind() == reflect.String:
			f.SetString(fmt.Sprint("s", *next))
			want[p] = fmt.Sprint("s", *next)
		case f.Kind() == reflect.Struct:
			fillCounters(t, f, p+".", next, want)
		case f.Kind() == reflect.Pointer && sf.Type.Elem().Kind() == reflect.Struct:
			f.Set(reflect.New(sf.Type.Elem()))
			fillCounters(t, f.Elem(), p+".", next, want)
		case sf.Type == reflect.TypeOf(map[string]*ProcStats(nil)):
			proc := &ProcStats{}
			fillCounters(t, reflect.ValueOf(proc).Elem(), p+".lpr.", next, want)
			f.Set(reflect.ValueOf(map[string]*ProcStats{"lpr": proc}))
		default:
			t.Errorf("%s: unhandled field type %s", p, sf.Type)
		}
	}
}

// leaves maps every leaf of a decoded JSON document to its dotted path.
func leaves(prefix string, v any, out map[string]any) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			leaves(prefix+k+".", e, out)
		}
	case []any:
		for i, e := range v {
			leaves(prefix+strconv.Itoa(i)+".", e, out)
		}
	default:
		out[strings.TrimSuffix(prefix, ".")] = v
	}
}

// printed parses PrintCounters output into path → value text.
func printed(t *testing.T, prefix string, v any) map[string]string {
	t.Helper()
	var buf bytes.Buffer
	if err := PrintCounters(&buf, prefix, v); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		path, val, ok := strings.Cut(strings.TrimPrefix(line, "c "), "=")
		if !ok {
			t.Fatalf("malformed counter line %q", line)
		}
		if _, dup := out[path]; dup {
			t.Errorf("counter %s printed twice", path)
		}
		out[path] = val
	}
	return out
}

// TestEveryCounterDeclaredOnce fills every counter of the solver, bounds,
// per-estimator, cuts, sharing, core-guided and board blocks with a distinct value and
// checks that each one appears exactly once, under its snake_case key, in
// the registry's document and in the -stats printout, and that the document
// round-trips. A counter added without a json tag fails here.
func TestEveryCounterDeclaredOnce(t *testing.T) {
	var n int64
	solverWant, boardWant := map[string]any{}, map[string]any{}
	var solver SolverStats
	fillCounters(t, reflect.ValueOf(&solver).Elem(), "", &n, solverWant)
	var board BoardStats
	fillCounters(t, reflect.ValueOf(&board).Elem(), "", &n, boardWant)

	reg := NewRegistry()
	live := &Live{}
	reg.RegisterSolver("lpr", live)
	live.Publish(SolverMetrics{SolverStats: solver})
	reg.RegisterBoard(func() BoardStats { return board })
	snap := reg.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	got := map[string]any{}
	leaves("", doc, got)

	for _, blk := range []struct {
		prefix string
		want   map[string]any
		value  any
	}{{"solvers.0.", solverWant, solver}, {"board.", boardWant, board}} {
		n := 0
		for path := range got {
			if strings.HasPrefix(path, blk.prefix) && path != "solvers.0.name" {
				n++
			}
		}
		if n != len(blk.want) {
			t.Errorf("%s block has %d keys, the type declares %d counters", blk.prefix, n, len(blk.want))
		}
		lines := printed(t, blk.prefix, blk.value)
		if len(lines) != len(blk.want) {
			t.Errorf("%s printout has %d lines, the type declares %d counters", blk.prefix, len(lines), len(blk.want))
		}
		for path, w := range blk.want {
			if v, ok := got[blk.prefix+path]; !ok || v != w {
				t.Errorf("document %s%s = %v (present %v), want %v", blk.prefix, path, v, ok, w)
			}
			text, ok := lines[blk.prefix+path]
			if f, isNum := w.(float64); isNum {
				if v, err := strconv.ParseFloat(text, 64); !ok || err != nil || v != f {
					t.Errorf("printout %s%s = %q (present %v), want %v", blk.prefix, path, text, ok, w)
				}
			} else if !ok || text != fmt.Sprint(w) {
				t.Errorf("printout %s%s = %q (present %v), want %v", blk.prefix, path, text, ok, w)
			}
		}
	}

	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("document did not round-trip:\n got %+v\nwant %+v", back, snap)
	}
}

// TestOptionalBlocksOmitted pins the omission rules: a solver block without
// sharing events has no "sharing" key, a bounds block without separation
// rounds has no "cuts" key, and a solver that is not core-guided has no
// "core_guided" key; the envelope keeps its fields.
func TestOptionalBlocksOmitted(t *testing.T) {
	best := int64(7)
	m := SolverMetrics{Name: "mis", Status: "optimal", Best: &best}
	m.Decisions = 3
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["sharing"]; ok {
		t.Errorf("inactive sharing block encoded: %s", data)
	}
	if _, ok := doc["bounds"].(map[string]any)["cuts"]; ok {
		t.Errorf("cuts block encoded without a separation round: %s", data)
	}
	if _, ok := doc["core_guided"]; ok {
		t.Errorf("core-guided block encoded for a branch-and-bound solver: %s", data)
	}
	if doc["name"] != "mis" || doc["status"] != "optimal" || doc["best"] != 7.0 || doc["decisions"] != 3.0 {
		t.Errorf("envelope or counters lost: %s", data)
	}
}
