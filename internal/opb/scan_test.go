package opb

import (
	"bufio"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// randText draws n bytes from alphabet, a string of single-byte or
// multi-byte pieces separated by '|'.
func randText(rng *rand.Rand, alphabet string, n int) string {
	pieces := strings.Split(alphabet, "|")
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

func TestParseIntMatchesStrconv(t *testing.T) {
	cases := []string{"", "+", "-", "0", "-0", "+0", "007", "1_000", "0x10", " 1", "1 ",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "+9223372036854775807", "99999999999999999999", "--1", "+-1", "x1", "~x1"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		cases = append(cases, randText(rng, "+|-|0|1|2|5|7|8|9|_|x", rng.Intn(22)))
	}
	for _, s := range cases {
		want, err := strconv.ParseInt(s, 10, 64)
		got, ok := ParseInt([]byte(s))
		if ok != (err == nil) || ok && got != want {
			t.Fatalf("ParseInt(%q) = %d, %v; strconv: %d, %v", s, got, ok, want, err)
		}
	}
}

// TestFieldsAndLinesMatchTheStandardLibrary checks that NextLine splits as
// bufio.ScanLines and Fields as strings.Fields, Unicode white space and
// invalid UTF-8 included.
func TestFieldsAndLinesMatchTheStandardLibrary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		text := randText(rng, "a|1|;|*| |\t|\n|\r|\r\n|\v|\u0085| |　|é|\xc2|\xe3\x80", rng.Intn(40))
		ls := bufio.NewScanner(strings.NewReader(text))
		sc := NewScanner([]byte(text))
		for ls.Scan() {
			line, ok := sc.NextLine()
			if !ok || string(line) != ls.Text() {
				t.Fatalf("%q: line %d is %q (%v), bufio.ScanLines has %q", text, sc.Line, line, ok, ls.Text())
			}
			want := strings.Fields(ls.Text())
			got := Fields(nil, line)
			if len(got) != len(want) {
				t.Fatalf("Fields(%q) = %q, strings.Fields has %q", line, got, want)
			}
			for k := range got {
				if string(got[k]) != want[k] {
					t.Fatalf("Fields(%q) = %q, strings.Fields has %q", line, got, want)
				}
			}
		}
		if line, ok := sc.NextLine(); ok {
			t.Fatalf("%q: extra line %q", text, line)
		}
	}
}

// refStatements splits text as the line-based reader did before Scanner:
// bufio lines, '*' comments cut, strings.Fields, then fields split at ';'.
// Each statement is its tokens joined by '|' and the line of its ';'.
func refStatements(text string) []string {
	var out, pending []string
	ls := bufio.NewScanner(strings.NewReader(text))
	line := 0
	flush := func() {
		if len(pending) > 0 {
			out = append(out, strconv.Itoa(line)+":"+strings.Join(pending, "|"))
		}
		pending = nil
	}
	for ls.Scan() {
		line++
		txt, _, _ := strings.Cut(ls.Text(), "*")
		for _, f := range strings.Fields(txt) {
			parts := strings.Split(f, ";")
			for k, p := range parts {
				if p != "" {
					pending = append(pending, p)
				}
				if k < len(parts)-1 {
					flush()
				}
			}
		}
	}
	flush()
	return out
}

func TestStatementMatchesLineReader(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		text := randText(rng, "x|1|+|;|;|*| | |\t|\n|\n|\r\n|\u0085| ", rng.Intn(50))
		var got []string
		sc := NewScanner([]byte(text))
		for toks, ok := sc.Statement(nil); ok; toks, ok = sc.Statement(nil) {
			words := make([]string, len(toks))
			for k, w := range toks {
				words[k] = string(w)
			}
			got = append(got, strconv.Itoa(sc.Line)+":"+strings.Join(words, "|"))
		}
		if want := refStatements(text); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%q:\n got %q\nwant %q", text, got, want)
		}
	}
}
