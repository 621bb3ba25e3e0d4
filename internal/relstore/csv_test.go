package relstore

import (
	"strings"
	"testing"
)

func TestLoadCSV(t *testing.T) {
	db := NewDB()
	src := "id,name,age\n1,ann,30\n2,bob,41\n"
	tbl, err := db.LoadCSV("People", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	if tbl.Cols[0].Type != Int || tbl.Cols[1].Type != String || tbl.Cols[2].Type != Int {
		t.Fatalf("inferred types wrong: %+v", tbl.Cols)
	}
	if d, _ := tbl.NDistinct("id"); d != 2 {
		t.Fatalf("NDistinct(id) = %d", d)
	}
	// The table is registered in the database.
	if _, err := db.Table("people"); err != nil {
		t.Fatal(err)
	}
}

func TestLoadCSVHeaderOnly(t *testing.T) {
	db := NewDB()
	tbl, err := db.LoadCSV("Empty", strings.NewReader("a,b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 0 || len(tbl.Cols) != 2 {
		t.Fatalf("tbl = %+v", tbl)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"empty", ""},
		{"short row", "a,b\n1\n"},
	}
	for _, c := range cases {
		db := NewDB()
		if _, err := db.LoadCSV("T", strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Duplicate table name.
	db := NewDB()
	if _, err := db.LoadCSV("T", strings.NewReader("a\n1\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadCSV("T", strings.NewReader("a\n1\n")); err == nil {
		t.Error("expected duplicate-table error")
	}
}

func TestLoadCSVMixedColumn(t *testing.T) {
	// A column whose first rows are integer-like but whose later rows are
	// not must demote to String instead of failing the load.
	db := NewDB()
	tbl, err := db.LoadCSV("T", strings.NewReader("id,code\n1,42\n2,7a\n3,9\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Cols[0].Type != Int {
		t.Fatalf("id column = %v, want Int", tbl.Cols[0].Type)
	}
	if tbl.Cols[1].Type != String {
		t.Fatalf("code column = %v, want String", tbl.Cols[1].Type)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", tbl.NumRows())
	}
	// Integer-looking values in the demoted column load as strings.
	if got := tbl.Rows[0][1]; got.T != String || got.S != "42" {
		t.Fatalf("row 0 code = %+v, want string \"42\"", got)
	}
}

// TestLoadCSVDropsCRBeforeLF pins LoadCSV's line-break rule: a run of
// carriage returns directly before a line feed inside a quoted field is
// dropped, in the header and in rows alike, and a lone "\r" stays.
func TestLoadCSVDropsCRBeforeLF(t *testing.T) {
	tbl, err := NewDB().LoadCSV("T", strings.NewReader("\"h\r\r\r\nx\",b\n\"v\r\r\nw\",\"a\rb\"\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Cols[0].Name != "h\nx" {
		t.Fatalf("header = %q, want %q", tbl.Cols[0].Name, "h\nx")
	}
	if got := tbl.Rows[0]; got[0].S != "v\nw" || got[1].S != "a\rb" {
		t.Fatalf("row = %q, %q; want %q, %q", got[0].S, got[1].S, "v\nw", "a\rb")
	}
}

func TestLoadCSVEndToEnd(t *testing.T) {
	// CSV in, graph out: the adoption path for real data.
	db := NewDB()
	if _, err := db.LoadCSV("Author", strings.NewReader("id,name\n1,ann\n2,bob\n3,cat\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadCSV("AuthorPub", strings.NewReader("aid,pid\n1,10\n2,10\n3,11\n1,11\n")); err != nil {
		t.Fatal(err)
	}
	ap, _ := db.Table("AuthorPub")
	if d, _ := ap.NDistinct("pid"); d != 2 {
		t.Fatalf("NDistinct(pid) = %d", d)
	}
}
