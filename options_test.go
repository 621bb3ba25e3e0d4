package graphgen

// Tests for the option flow from Engine to operator: every public With*
// option, set engine-wide or per call, must reach the layer that owns the
// setting through each of the three entry points — and nothing else; and the
// layers' options structs must stay free of mirrored and pass-through fields.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphgen/internal/core"
	"graphgen/internal/datalogeval"
	"graphgen/internal/extract"
	"graphgen/internal/relstore"
)

// optionFlowDB is a co-author database shaped so every option has something
// to show: 300 publications over 200 authors and 1800 membership rows, seven
// authors on most publications (the self-join is large-output under the
// default factor) and two on every fifth (virtual nodes the Step-6 pass
// inlines).
func optionFlowDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	author, err := db.Create("Author", Column{Name: "id", Type: Int}, Column{Name: "name", Type: String})
	if err != nil {
		t.Fatal(err)
	}
	ap, err := db.Create("AuthorPub", Column{Name: "aid", Type: Int}, Column{Name: "pid", Type: Int})
	if err != nil {
		t.Fatal(err)
	}
	for a := int64(1); a <= 200; a++ {
		author.Insert(IntVal(a), StrVal(fmt.Sprintf("a%d", a)))
	}
	for p := int64(1); p <= 300; p++ {
		size := int64(7)
		if p%5 == 0 {
			size = 2
		}
		for j := int64(0); j < size; j++ {
			ap.Insert(IntVal((p*7+j*13)%200+1), IntVal(p))
		}
	}
	return db
}

const (
	optionFlowQuery = `
Nodes(ID, Name) :- Author(ID, Name).
Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P).
`
	// The same graph through a derived predicate (1800 derived tuples), plus
	// a selective rule whose plan probes an index on the derived table and
	// one on a base table when auto-indexing is on.
	optionFlowProgram = `
Member(A, P) :- AuthorPub(A, P).
Seven(A) :- Member(A, 7), Author(A, N).
Nodes(ID, Name) :- Author(ID, Name).
Edges(ID1, ID2) :- Member(ID1, P), Member(ID2, P).
`
	optionFlowAuthor = 8 // on publication 1
)

// optionRun is what one extraction call lets a caller observe.
type optionRun struct {
	err         error
	rep         Representation
	virtual     int
	selfLoop    bool
	stats       ExtractStats // zero for live graphs
	profile     *Profile
	baseIndexed int // indexed columns across the base tables after the call
}

// indexSpans counts the operators that chose an index access path, over
// tables whose name starts with prefix.
func (r optionRun) indexSpans(prefix string) (n int) {
	if r.profile != nil {
		r.profile.Walk(func(s *Profile) {
			if s.Strategy == "index" && strings.HasPrefix(s.Detail, prefix) {
				n++
			}
		})
	}
	return n
}

// shape renders everything deterministic about a run, for "this option is
// inert here" and "nothing leaked into the next call" comparisons.
func (r optionRun) shape() string {
	errClass := fmt.Sprint(r.err)
	for _, e := range []error{core.ErrTooLarge, ErrTooManyDerived} {
		if errors.Is(r.err, e) {
			errClass = e.Error()
		}
	}
	return fmt.Sprintf("err=%s rep=%v virtual=%d selfLoop=%t large=%d dbjoins=%d preprocessed=%d baseIndexed=%d profiled=%t indexSpans=%d",
		errClass, r.rep, r.virtual, r.selfLoop, r.stats.LargeOutputJoins, r.stats.DatabaseJoins,
		r.stats.PreprocessExpanded, r.baseIndexed, r.profile != nil, r.indexSpans(""))
}

// optionFlowEntries are the three entry points, each reduced to an optionRun.
var optionFlowEntries = []struct {
	name string
	run  func(e *Engine, opts ...Option) optionRun
}{
	{"Extract", func(e *Engine, opts ...Option) optionRun {
		g, err := e.Extract(optionFlowQuery, opts...)
		return observeGraph(g, err)
	}},
	{"ExtractProgram", func(e *Engine, opts ...Option) optionRun {
		g, err := e.ExtractProgram(optionFlowProgram, opts...)
		return observeGraph(g, err)
	}},
	{"ExtractLive", func(e *Engine, opts ...Option) optionRun {
		lg, err := e.ExtractLive(optionFlowQuery, opts...)
		if err != nil {
			return optionRun{err: err}
		}
		defer lg.Close()
		r := observeGraph(lg.Snapshot(), nil)
		r.profile = lg.BuildProfile()
		return r
	}},
}

func observeGraph(g *Graph, err error) optionRun {
	if err != nil {
		return optionRun{err: err}
	}
	return optionRun{rep: g.Representation(), virtual: g.NumVirtualNodes(),
		selfLoop: g.ExistsEdge(optionFlowAuthor, optionFlowAuthor), stats: g.ExtractionStats(), profile: g.Profile()}
}

// TestOptionFlow sets every public option once on NewEngine and once on the
// call, through Extract, ExtractProgram and ExtractLive, and asserts an
// observable effect of each against the same call without it (base options
// ride on both arms, per call). Where a layer does not own the setting the
// option must be inert, and a per-call option must not outlive its call.
func TestOptionFlow(t *testing.T) {
	all := []string{"Extract", "ExtractProgram", "ExtractLive"}
	static := all[:2] // live graphs never preprocess
	cases := []struct {
		name    string
		opt     Option
		base    []Option
		affects []string
		check   func(entry string, without, with optionRun) string
	}{
		{"WithForceCondensed", WithForceCondensed(), []Option{WithLargeOutputFactor(1e9)}, all,
			func(_ string, without, with optionRun) string {
				if without.virtual != 0 || with.virtual == 0 {
					return fmt.Sprintf("virtual nodes %d -> %d, want 0 -> some", without.virtual, with.virtual)
				}
				return ""
			}},
		{"WithForceExpand", WithForceExpand(), nil, all,
			func(entry string, without, with optionRun) string {
				if without.virtual == 0 || with.virtual != 0 || (entry != "ExtractLive" && with.stats.DatabaseJoins == 0) {
					return fmt.Sprintf("virtual nodes %d -> %d (database joins %d), want some -> 0", without.virtual, with.virtual, with.stats.DatabaseJoins)
				}
				return ""
			}},
		{"WithMaxEdges", WithMaxEdges(10), []Option{WithForceExpand()}, all,
			func(_ string, without, with optionRun) string {
				if without.err != nil || !errors.Is(with.err, core.ErrTooLarge) {
					return fmt.Sprintf("err %v -> %v, want nil -> ErrTooLarge", without.err, with.err)
				}
				return ""
			}},
		{"WithSelfLoops", WithSelfLoops(), nil, all,
			func(_ string, without, with optionRun) string {
				if without.selfLoop || !with.selfLoop {
					return fmt.Sprintf("self edge %t -> %t, want false -> true", without.selfLoop, with.selfLoop)
				}
				return ""
			}},
		{"WithoutPreprocessing", WithoutPreprocessing(), nil, static,
			func(_ string, without, with optionRun) string {
				if without.stats.PreprocessExpanded == 0 || with.stats.PreprocessExpanded != 0 || with.virtual <= without.virtual {
					return fmt.Sprintf("inlined %d -> %d, virtual nodes %d -> %d; want some -> 0 and more virtual nodes",
						without.stats.PreprocessExpanded, with.stats.PreprocessExpanded, without.virtual, with.virtual)
				}
				return ""
			}},
		{"WithLargeOutputFactor", WithLargeOutputFactor(1e9), nil, all,
			func(_ string, without, with optionRun) string {
				if without.virtual == 0 || with.virtual != 0 {
					return fmt.Sprintf("virtual nodes %d -> %d, want some -> 0", without.virtual, with.virtual)
				}
				return ""
			}},
		// Derived tables die with the call, so "no index on them" is read
		// off the plan: the selective rule of optionFlowProgram probes an
		// index on Member by default and never with auto-indexing off.
		{"WithAutoIndex(false)", WithAutoIndex(false), []Option{WithProfile()}, all,
			func(entry string, without, with optionRun) string {
				if without.baseIndexed == 0 || with.baseIndexed != 0 || with.indexSpans("") != 0 {
					return fmt.Sprintf("indexed base columns %d -> %d, index access paths %d -> %d; want some -> 0 and none",
						without.baseIndexed, with.baseIndexed, without.indexSpans(""), with.indexSpans(""))
				}
				if entry == "ExtractProgram" && (without.indexSpans("Member") == 0 || without.indexSpans("Author") == 0) {
					return fmt.Sprintf("default plan probes %d derived-table and %d base-table indexes, want both", without.indexSpans("Member"), without.indexSpans("Author"))
				}
				return ""
			}},
		{"WithMaxDerivedTuples", WithMaxDerivedTuples(100), nil, all[1:2],
			func(_ string, without, with optionRun) string {
				if without.err != nil || !errors.Is(with.err, ErrTooManyDerived) {
					return fmt.Sprintf("err %v -> %v, want nil -> ErrTooManyDerived", without.err, with.err)
				}
				return ""
			}},
		{"WithProfile", WithProfile(), nil, all,
			func(_ string, without, with optionRun) string {
				if without.profile != nil || with.profile == nil || len(with.profile.Children) == 0 {
					return "want no profile without the option and a span tree with it"
				}
				return ""
			}},
	}
	for _, c := range cases {
		for _, entry := range optionFlowEntries {
			// Each arm gets its own database: auto-created indexes persist
			// on the tables.
			run := func(engine []Option, call ...Option) (optionRun, *Engine) {
				db := optionFlowDB(t)
				e := NewEngine(db, engine...)
				r := entry.run(e, call...)
				for _, name := range db.TableNames() {
					tbl, err := db.Table(name)
					if err != nil {
						t.Fatal(err)
					}
					r.baseIndexed += len(tbl.IndexedColumns())
				}
				return r, e
			}
			without, _ := run(nil, c.base...)
			onEngine, _ := run([]Option{c.opt}, c.base...)
			onCall, e := run(nil, append(append([]Option(nil), c.base...), c.opt)...)
			for placement, with := range map[string]optionRun{"NewEngine": onEngine, "the call": onCall} {
				label := fmt.Sprintf("%s set on %s, through %s", c.name, placement, entry.name)
				if !slices.Contains(c.affects, entry.name) {
					if with.shape() != without.shape() {
						t.Errorf("%s: should be inert\n  without %s\n  with    %s", label, without.shape(), with.shape())
					}
				} else if msg := c.check(entry.name, without, with); msg != "" {
					t.Errorf("%s: %s", label, msg)
				}
			}
			// The engine that just served the per-call option serves the
			// next call as if it had never seen it (indexes the first call
			// created or skipped aside: the second call decides its own).
			again := entry.run(e, c.base...)
			again.baseIndexed = without.baseIndexed
			if again.shape() != without.shape() {
				t.Errorf("%s per call through %s leaked into the next call\n  fresh %s\n  next  %s", c.name, entry.name, without.shape(), again.shape())
			}
		}
	}
}

// TestOptionsStructsDoNotOverlap guards the one-execution-context rule: a
// setting lives in exactly one struct. relstore.ExecOpts owns what cuts
// across the layers; extract.Options and datalogeval.Options embed it and
// declare only what their own layer decides, so neither may redeclare one of
// its fields (a mirror that needs a translation) or one of the other's (a
// pass-through the Engine should route instead).
func TestOptionsStructsDoNotOverlap(t *testing.T) {
	exec := reflect.TypeOf(relstore.ExecOpts{})
	own := func(typ reflect.Type) map[string]bool {
		fields := make(map[string]bool)
		embeds := false
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous && f.Type == exec {
				embeds = true
				continue
			}
			fields[strings.ToLower(f.Name)] = true
		}
		if !embeds {
			t.Errorf("%v does not embed relstore.ExecOpts", typ)
		}
		return fields
	}
	ext := own(reflect.TypeOf(extract.Options{}))
	eval := own(reflect.TypeOf(datalogeval.Options{}))
	t.Logf("own fields: extract.Options %d, datalogeval.Options %d, relstore.ExecOpts %d", len(ext), len(eval), exec.NumField())
	for name := range ext {
		if eval[name] {
			t.Errorf("extract.Options and datalogeval.Options both declare %q", name)
		}
	}
	// The switches ExecOpts.UseIndex and the test oracle replaced must not
	// come back under their old names either.
	retired := map[string]bool{"noindex": true, "nostream": true}
	for i := 0; i < exec.NumField(); i++ {
		retired[strings.ToLower(exec.Field(i).Name)] = true
	}
	for layer, fields := range map[string]map[string]bool{"extract.Options": ext, "datalogeval.Options": eval} {
		for name := range fields {
			if retired[name] {
				t.Errorf("%s declares %q, which relstore.ExecOpts already carries", layer, name)
			}
		}
	}
}

// TestOracleIsTestOnly pins where the materializing oracle can be switched
// on: relstore.MaterializingOracle is defined once and called from _test.go
// files only, so no option, flag or API reaches it.
func TestOracleIsTestOnly(t *testing.T) {
	var defs int
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if d != nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir // .git and friends hold no Go source
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(src), "\n") {
			switch {
			case strings.HasPrefix(line, "func MaterializingOracle("):
				defs++
			case strings.Contains(line, "MaterializingOracle(") && !strings.HasPrefix(strings.TrimSpace(line), "//"):
				t.Errorf("%s switches the test oracle on outside a test: %s", path, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if defs != 1 {
		t.Errorf("found %d definitions of MaterializingOracle, want 1", defs)
	}
}
