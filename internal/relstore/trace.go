package relstore

import (
	"graphgen/internal/obs"
)

// This file is the operator layer's tracing shim. Every exported
// iterator constructor opens one obs.Span when ExecOpts.Trace is set,
// recording the operator kind, the access-path/strategy choice, rows
// emitted, and wall time from construction to Close. The tracing-off fast
// path is a single nil-pointer test per constructor: no span, no wrapper,
// no allocation — the returned iterator is exactly the untraced one.

// traced wraps it so sp records its rows out and wall time, ending at the
// first Close (Close stays idempotent). A nil span — tracing off — returns
// it unchanged.
func traced(it RowIter, sp *obs.Span) RowIter {
	if sp == nil {
		return it
	}
	return &tracedIter{inner: it, span: sp}
}

type tracedIter struct {
	inner  RowIter
	span   *obs.Span
	rows   int64
	closed bool
}

func (it *tracedIter) Cols() []string { return it.inner.Cols() }

func (it *tracedIter) Next() (Row, bool, error) {
	row, ok, err := it.inner.Next()
	if ok {
		it.rows++
	}
	return row, ok, err
}

func (it *tracedIter) Close() error {
	err := it.inner.Close()
	if !it.closed {
		it.closed = true
		it.span.AddRows(it.rows)
		it.span.End()
	}
	return err
}
