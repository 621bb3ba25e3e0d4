// Package lintest is graphlint's analysistest-style harness: it
// type-checks fixture files under a chosen import path, runs one analyzer
// through the full suppression pipeline, and compares the diagnostics
// against the fixtures' expectation comments.
//
// Expectations are written on the line the diagnostic lands on:
//
//	seen[strings.Join(parts, "|")] = true // want `keyencode: .*AppendRowKey`
//
// Each backquoted segment after "// want" is a regular expression matched
// against "<analyzer>: <message>". Every diagnostic must match a want on
// its line and every want must be matched by a diagnostic, so fixtures
// double as both false-negative and false-positive tests.
//
// The import path matters: several analyzers are scoped (lockorder to
// internal/server, notifyorder's intra rules to internal/relstore,
// determinism to the deterministic packages), and Run type-checks the
// fixtures *as* the given path so those rules fire on testdata that never
// lives in the real package.
package lintest

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"graphgen/internal/analyzers"
)

// Run checks every .go file in dir as package asPath, applies the
// analyzer, and asserts the diagnostics match the // want comments.
func Run(t *testing.T, a *analyzers.Analyzer, asPath, dir string) {
	t.Helper()
	diags := Diagnostics(t, a, asPath, dir)
	wants := parseWants(t, dir)

	for _, d := range diags {
		text := d.Analyzer + ": " + d.Message
		if !claimWant(wants, filepath.Base(d.Pos.Filename), d.Pos.Line, text) {
			t.Errorf("unexpected diagnostic at %s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, text)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("no diagnostic at %s:%d matching %q", w.file, w.line, w.re.String())
		}
	}
}

// Diagnostics type-checks the fixture directory as asPath and returns the
// surviving diagnostics (after suppression), for tests that assert on
// them directly instead of via want comments.
func Diagnostics(t *testing.T, a *analyzers.Analyzer, asPath, dir string) []analyzers.Diagnostic {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files in %s (%v)", dir, err)
	}
	sort.Strings(files)
	pkg, err := analyzers.CheckFiles(moduleRoot(t, dir), asPath, files)
	if err != nil {
		t.Fatalf("loading fixtures %s as %s: %v", dir, asPath, err)
	}
	diags, err := analyzers.RunAnalyzers([]*analyzers.Package{pkg}, []*analyzers.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	return diags
}

// moduleRoot walks up from dir to the enclosing go.mod.
func moduleRoot(t *testing.T, dir string) string {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			t.Fatalf("no go.mod above %s", abs)
		}
		d = parent
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

var wantRe = regexp.MustCompile("// want ((?:`[^`]*`\\s*)+)$")
var wantSegRe = regexp.MustCompile("`([^`]*)`")

func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	sort.Strings(files)
	var out []*want
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, seg := range wantSegRe.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(seg[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, seg[1], err)
				}
				out = append(out, &want{file: filepath.Base(name), line: i + 1, re: re})
			}
		}
	}
	return out
}

// claimWant marks and returns the first unused want on (file, line) whose
// pattern matches text.
func claimWant(wants []*want, file string, line int, text string) bool {
	for _, w := range wants {
		if !w.used && w.file == file && w.line == line && w.re.MatchString(text) {
			w.used = true
			return true
		}
	}
	return false
}
