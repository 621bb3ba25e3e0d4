package analyzers_test

import (
	"strings"
	"testing"

	"graphgen/internal/analyzers"
	"graphgen/internal/analyzers/lintest"
)

// The fixture suites: each analyzer gets a flagged fixture (every seeded
// violation must be reported, asserted by // want comments) and a clean
// fixture (zero findings). Scoped analyzers are checked under the import
// path their rules are bound to.

func TestKeyencode(t *testing.T) {
	lintest.Run(t, analyzers.KeyencodeAnalyzer, "graphgen/internal/fixture", "testdata/src/keyencode/flagged")
	lintest.Run(t, analyzers.KeyencodeAnalyzer, "graphgen/internal/fixture", "testdata/src/keyencode/clean")
}

func TestGuardedBy(t *testing.T) {
	lintest.Run(t, analyzers.GuardedByAnalyzer, "graphgen/internal/fixture", "testdata/src/guardedby/flagged")
	lintest.Run(t, analyzers.GuardedByAnalyzer, "graphgen/internal/fixture", "testdata/src/guardedby/clean")
}

// TestGuardedByBadAnnotations: malformed annotations are findings in
// their own right. Asserted directly — a want comment sharing the
// directive's line would pollute its argument.
func TestGuardedByBadAnnotations(t *testing.T) {
	diags := lintest.Diagnostics(t, analyzers.GuardedByAnalyzer, "graphgen/internal/fixture", "testdata/src/guardedby/badannot")
	wantSubstrings := []string{
		`graphlint:guardedby gone: "missing" is not a sibling sync.Mutex/RWMutex field`,
		`graphlint:guardedby needs a sibling mutex field name`,
		`graphlint:guardedby external: needs a lock name`,
		`graphlint:guardedby cannot annotate an embedded field`,
		`graphlint:requires f: the receiver has no sync.Mutex/RWMutex field "nope"`,
	}
	if len(diags) != len(wantSubstrings) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(wantSubstrings), diags)
	}
	for _, sub := range wantSubstrings {
		found := false
		for _, d := range diags {
			if strings.Contains(d.String(), sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic contains %q; got %v", sub, diags)
		}
	}
}

// TestGuardedByUnannotated: a package with mutexes but no annotations
// opts out entirely — the lockedreturn fixtures are exactly that shape.
func TestGuardedByUnannotated(t *testing.T) {
	for _, dir := range []string{"testdata/src/lockedreturn/flagged", "testdata/src/lockedreturn/clean"} {
		if diags := lintest.Diagnostics(t, analyzers.GuardedByAnalyzer, "graphgen/internal/fixture", dir); len(diags) != 0 {
			t.Fatalf("guardedby fired on the unannotated package %s: %v", dir, diags)
		}
	}
}

func TestNilSafe(t *testing.T) {
	lintest.Run(t, analyzers.NilSafeAnalyzer, "graphgen/internal/obs", "testdata/src/nilsafe/flagged")
	lintest.Run(t, analyzers.NilSafeAnalyzer, "graphgen/internal/obs", "testdata/src/nilsafe/clean")
}

// TestNilSafeScoped: outside internal/obs the analyzer stays silent,
// even on unguarded Trace/Span lookalikes.
func TestNilSafeScoped(t *testing.T) {
	if diags := lintest.Diagnostics(t, analyzers.NilSafeAnalyzer, "graphgen/internal/fixture", "testdata/src/nilsafe/flagged"); len(diags) != 0 {
		t.Fatalf("nilsafe fired outside internal/obs: %v", diags)
	}
}

func TestLockOrder(t *testing.T) {
	lintest.Run(t, analyzers.LockOrderAnalyzer, "graphgen/internal/server", "testdata/src/lockorder/flagged")
	lintest.Run(t, analyzers.LockOrderAnalyzer, "graphgen/internal/server", "testdata/src/lockorder/clean")
}

// TestLockOrderScoped: outside internal/server the analyzer stays silent,
// even on code full of inversions.
func TestLockOrderScoped(t *testing.T) {
	if diags := lintest.Diagnostics(t, analyzers.LockOrderAnalyzer, "graphgen/internal/fixture", "testdata/src/lockorder/flagged"); len(diags) != 0 {
		t.Fatalf("lockorder fired outside internal/server: %v", diags)
	}
}

func TestNotifyOrder(t *testing.T) {
	lintest.Run(t, analyzers.NotifyOrderAnalyzer, "graphgen/internal/relstore", "testdata/src/notifyorder/flagged")
	lintest.Run(t, analyzers.NotifyOrderAnalyzer, "graphgen/internal/relstore", "testdata/src/notifyorder/clean")
	lintest.Run(t, analyzers.NotifyOrderAnalyzer, "graphgen/internal/fixture", "testdata/src/notifyorder/crosspkg")
}

func TestDeterminism(t *testing.T) {
	lintest.Run(t, analyzers.DeterminismAnalyzer, "graphgen/internal/datagen", "testdata/src/determinism/flagged")
	lintest.Run(t, analyzers.DeterminismAnalyzer, "graphgen/internal/datagen", "testdata/src/determinism/clean")
}

// TestDeterminismScoped: the same violations are fine in a package outside
// the deterministic set.
func TestDeterminismScoped(t *testing.T) {
	if diags := lintest.Diagnostics(t, analyzers.DeterminismAnalyzer, "graphgen/internal/fixture", "testdata/src/determinism/flagged"); len(diags) != 0 {
		t.Fatalf("determinism fired outside the deterministic packages: %v", diags)
	}
}

func TestIterClose(t *testing.T) {
	lintest.Run(t, analyzers.IterCloseAnalyzer, "graphgen/internal/relstore", "testdata/src/iterclose/flagged")
	lintest.Run(t, analyzers.IterCloseAnalyzer, "graphgen/internal/relstore", "testdata/src/iterclose/clean")
	// The conjunctive evaluator and its incremental caller build pipelines
	// too: the same leaks must fire there.
	lintest.Run(t, analyzers.IterCloseAnalyzer, "graphgen/internal/conj", "testdata/src/iterclose/flagged")
	lintest.Run(t, analyzers.IterCloseAnalyzer, "graphgen/internal/incremental", "testdata/src/iterclose/flagged")
}

// TestIterCloseScoped: outside the streaming packages the analyzer stays
// silent, even on leaky code.
func TestIterCloseScoped(t *testing.T) {
	if diags := lintest.Diagnostics(t, analyzers.IterCloseAnalyzer, "graphgen/internal/fixture", "testdata/src/iterclose/flagged"); len(diags) != 0 {
		t.Fatalf("iterclose fired outside the pipeline-building packages: %v", diags)
	}
}

func TestSpanEnd(t *testing.T) {
	lintest.Run(t, analyzers.SpanEndAnalyzer, "graphgen/internal/extract", "testdata/src/spanend/flagged")
	lintest.Run(t, analyzers.SpanEndAnalyzer, "graphgen/internal/extract", "testdata/src/spanend/clean")
	lintest.Run(t, analyzers.SpanEndAnalyzer, "graphgen/internal/conj", "testdata/src/spanend/flagged")
	lintest.Run(t, analyzers.SpanEndAnalyzer, "graphgen/internal/incremental", "testdata/src/spanend/flagged")
}

// TestSpanEndScoped: outside the traced execution packages the analyzer
// stays silent, even on leaky code.
func TestSpanEndScoped(t *testing.T) {
	if diags := lintest.Diagnostics(t, analyzers.SpanEndAnalyzer, "graphgen/internal/fixture", "testdata/src/spanend/flagged"); len(diags) != 0 {
		t.Fatalf("spanend fired outside the traced execution packages: %v", diags)
	}
}

func TestLockedReturn(t *testing.T) {
	lintest.Run(t, analyzers.LockedReturnAnalyzer, "graphgen/internal/fixture", "testdata/src/lockedreturn/flagged")
	lintest.Run(t, analyzers.LockedReturnAnalyzer, "graphgen/internal/fixture", "testdata/src/lockedreturn/clean")
}

// TestSuppression drives the lint:ignore policy end to end: a justified
// directive silences its finding; stale, unknown-name, and bare directives
// are diagnostics themselves; a rejected directive suppresses nothing.
func TestSuppression(t *testing.T) {
	diags := lintest.Diagnostics(t, analyzers.LockedReturnAnalyzer, "graphgen/internal/fixture", "testdata/src/suppress")
	wantSubstrings := []string{
		`lint:ignore for lockedreturn suppresses nothing`,
		`lint:ignore names unknown analyzer "lockedretrun"`,
		`lint:ignore needs an analyzer list and a justification`,
		`return leaks h.mu.Lock`,
	}
	if len(diags) != len(wantSubstrings) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(wantSubstrings), diags)
	}
	for _, sub := range wantSubstrings {
		found := false
		for _, d := range diags {
			if strings.Contains(d.String(), sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic contains %q; got %v", sub, diags)
		}
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "handed to the caller") || strings.Contains(d.Message, "return leaks") && d.Pos.Line < 20 {
			t.Errorf("justified suppression did not hold: %v", d)
		}
	}
}

// TestAllStable pins the suite composition: nine analyzers, stable
// order, unique names — the names are part of the lint:ignore contract.
func TestAllStable(t *testing.T) {
	want := []string{"determinism", "guardedby", "iterclose", "keyencode", "lockedreturn", "lockorder", "nilsafe", "notifyorder", "spanend"}
	all := analyzers.All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run function", a.Name)
		}
	}
}
