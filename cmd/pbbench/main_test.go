package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownSolverRejected: a misspelt or empty -solvers id fails with exit
// 1 and names the id, before any instance is generated, as an unknown
// -family does. It used to run as a column of "time" cells and exit 0.
func TestUnknownSolverRejected(t *testing.T) {
	for _, tc := range []struct{ solvers, want string }{
		{"foo", `unknown solver "foo"`},
		{"lpr,foo", `unknown solver "foo"`},
		{"lpr,", `empty solver id in "lpr,"`},
		{"lpr,,mis", `empty solver id in "lpr,,mis"`},
	} {
		var stdout, stderr bytes.Buffer
		code := run(&stdout, &stderr, []string{"-family", "synth", "-n", "1", "-time", "1s", "-solvers", tc.solvers})
		if code != 1 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("-solvers %q: exit %d, stderr %q; want exit 1 naming %s", tc.solvers, code, stderr.String(), tc.want)
		}
		if strings.Contains(stdout.String(), "running") {
			t.Errorf("-solvers %q: the run started before the list was checked:\n%s", tc.solvers, stdout.String())
		}
	}
}
