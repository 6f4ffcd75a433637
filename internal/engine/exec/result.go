// Package exec is the engine's query executor. SELECT statements run
// partition-parallel: every table partition is scanned by its own
// goroutine (the paper's 20 Teradata threads), aggregate state is
// accumulated per partition and merged by a master — the aggregate
// UDF's phase-3 protocol — and scalar projections stream.
package exec

import (
	"fmt"

	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
)

// Catalog resolves table names; implemented by the db package.
type Catalog interface {
	// Table returns the named table or an error including the name.
	Table(name string) (*storage.Table, error)
}

// Result is a fully materialized query result.
type Result struct {
	Schema   *sqltypes.Schema
	Rows     []sqltypes.Row
	Affected int64  // rows inserted, for INSERT
	Stats    *Stats // execution statistics; nil for statements without a scan
}

// Value returns the single value of a one-row one-column result, the
// shape aggregate-UDF queries produce.
func (r *Result) Value() (sqltypes.Value, error) {
	if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
		return sqltypes.Null, fmt.Errorf("exec: expected a 1×1 result, got %d×%d", len(r.Rows), r.Schema.Len())
	}
	return r.Rows[0][0], nil
}

// RowSink receives result rows. Sinks may be invoked from multiple
// goroutines concurrently; implementations must synchronize.
type RowSink func(sqltypes.Row) error
