package relstore

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ErrCSVSpec marks a malformed -csv flag value passed to LoadCSVFiles —
// a usage error for CLI front ends (exit 2), as opposed to file-system
// or parse failures (exit 1).
var ErrCSVSpec = errors.New("csv spec must be comma-separated name=path pairs")

// LoadCSVFiles loads a "name=path.csv,name=path.csv" spec — the -csv
// flag format shared by cmd/graphgen and cmd/graphgend — into db, one
// table per pair.
func (db *DB) LoadCSVFiles(spec string) error {
	for _, pair := range strings.Split(spec, ",") {
		name, path, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("%w: got %q", ErrCSVSpec, pair)
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		_, err = db.LoadCSV(name, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %w", path, err)
		}
	}
	return nil
}

// LoadCSV creates a table from CSV data. The first record is the header;
// column types are inferred over ALL data rows: a column is Int only when
// every row parses as an integer, otherwise it is String (a single
// non-numeric value anywhere demotes the column rather than failing the
// load). A header-only file defaults every column to String.
//
// Inside a field (only a quoted one can hold a line break), a run of
// carriage returns directly before a line feed is dropped: encoding/csv
// folds just one quoted "\r\n" into "\n", so without this a field like
// "a\r\r\nb" would lose one "\r" on every save and reload instead of
// loading as the fixpoint "a\nb".
func (db *DB) LoadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relstore: %s: reading CSV header: %w", name, err)
	}
	dropCRBeforeLF(header)
	if len(header) == 0 {
		return nil, fmt.Errorf("relstore: %s: empty CSV header", name)
	}
	// Materialize all records first so inference sees every row; the load
	// is in-memory anyway.
	var records [][]string
	for line := 2; ; line++ {
		record, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relstore: %s: CSV row %d: %w", name, line, err)
		}
		dropCRBeforeLF(record)
		records = append(records, record)
	}
	cols := make([]Column, len(header))
	for i, h := range header {
		typ := String
		if len(records) > 0 {
			typ = Int
			for _, record := range records {
				if i >= len(record) {
					continue // arity mismatch reported at insert below
				}
				if _, err := strconv.ParseInt(strings.TrimSpace(record[i]), 10, 64); err != nil {
					typ = String
					break
				}
			}
		}
		cols[i] = Column{Name: strings.TrimSpace(h), Type: typ}
	}
	t, err := db.Create(name, cols...)
	if err != nil {
		return nil, err
	}
	for n, record := range records {
		if len(record) != len(cols) {
			return nil, fmt.Errorf("relstore: %s: CSV row %d has %d fields, want %d", name, n+2, len(record), len(cols))
		}
		row := make([]Value, len(cols))
		for i, field := range record {
			field = strings.TrimSpace(field)
			if cols[i].Type == Int {
				v, err := strconv.ParseInt(field, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("relstore: %s: CSV row %d column %q: %w", name, n+2, cols[i].Name, err)
				}
				row[i] = IntVal(v)
			} else {
				row[i] = StrVal(field)
			}
		}
		if err := t.Insert(row...); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// dropCRBeforeLF removes, in place in every field of record, each run of
// carriage returns that directly precedes a line feed.
func dropCRBeforeLF(record []string) {
	for i, f := range record {
		if !strings.Contains(f, "\r\n") {
			continue
		}
		b := make([]byte, 0, len(f))
		for j := 0; j < len(f); j++ {
			if f[j] == '\n' {
				b = bytes.TrimRight(b, "\r")
			}
			b = append(b, f[j])
		}
		record[i] = string(b)
	}
}
