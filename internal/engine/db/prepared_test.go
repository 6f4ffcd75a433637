package db

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine/obs"
	"repro/internal/engine/sqltypes"
)

func preparedFixture(t *testing.T) *DB {
	t.Helper()
	d := openTest(t)
	mustExec(t, d, "CREATE TABLE pts (i BIGINT, x DOUBLE, s VARCHAR)")
	for i := 0; i < 10; i++ {
		mustExec(t, d, fmt.Sprintf("INSERT INTO pts VALUES (%d, %d.5, 'r%d')", i, i, i))
	}
	return d
}

func TestPrepareExecuteSelect(t *testing.T) {
	d := preparedFixture(t)
	p, err := d.Prepare("SELECT i, x FROM pts WHERE i = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", p.NumParams())
	}
	for i := 0; i < 10; i++ {
		res, err := p.Execute(sqltypes.NewBigInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(i) {
			t.Fatalf("i=%d: rows %v", i, res.Rows)
		}
	}
	// Each execution sees fresh data, not a snapshot.
	mustExec(t, d, "INSERT INTO pts VALUES (3, 99.0, 'dup')")
	res, err := p.Execute(sqltypes.NewBigInt(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("after insert: %d rows, want 2", len(res.Rows))
	}
}

func TestPrepareExecuteInsert(t *testing.T) {
	d := preparedFixture(t)
	p, err := d.Prepare("INSERT INTO pts VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 100; i < 110; i++ {
		res, err := p.Execute(sqltypes.NewBigInt(int64(i)), sqltypes.NewDouble(0.5), sqltypes.NewVarChar("ins"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Affected != 1 {
			t.Fatalf("affected %d", res.Affected)
		}
	}
	res, err := d.Exec("SELECT count(*) FROM pts WHERE s = 'ins'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 10 {
		t.Fatalf("inserted rows: %v", res.Rows)
	}
}

func TestPrepareArgCount(t *testing.T) {
	d := preparedFixture(t)
	p, err := d.Prepare("SELECT i FROM pts WHERE i = ? AND x > ?")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Execute(sqltypes.NewBigInt(1)); err == nil {
		t.Fatal("accepted 1 arg for 2 slots")
	}
	if _, err := p.Execute(sqltypes.NewBigInt(1), sqltypes.NewDouble(0), sqltypes.NewDouble(0)); err == nil {
		t.Fatal("accepted 3 args for 2 slots")
	}
}

func TestPrepareRejectsBadStatements(t *testing.T) {
	d := preparedFixture(t)
	for _, sql := range []string{
		"SELECT nocolumn FROM pts",       // sema error at prepare time
		"SELECT i FROM pts WHERE",        // parse error
		"DROP TABLE pts",                 // DDL is not preparable
		"CREATE TABLE q (a BIGINT)",      // ditto
		"SELECT s + 1 FROM pts",          // type error
		"SELECT i FROM pts WHERE s = ?1", // not our placeholder syntax
	} {
		if _, err := d.Prepare(sql); err == nil {
			t.Errorf("Prepare(%q) succeeded", sql)
		}
	}
}

// Prepared errors must surface before any partition scan starts, on
// the prepared path exactly as on ad-hoc dispatch.
func TestPrepareRejectsBeforeScan(t *testing.T) {
	d := preparedFixture(t)
	tbl, err := d.Table("pts")
	if err != nil {
		t.Fatal(err)
	}
	tbl.ResetScannedRows()
	if _, err := d.Prepare("SELECT nope FROM pts"); err == nil {
		t.Fatal("expected sema error")
	}
	if n := tbl.ScannedRows(); n != 0 {
		t.Fatalf("prepare of a bad statement scanned %d rows", n)
	}
}

func TestPreparedStaleAfterDDL(t *testing.T) {
	d := preparedFixture(t)
	p, err := d.Prepare("SELECT i FROM pts WHERE i = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Execute(sqltypes.NewBigInt(1)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, d, "CREATE TABLE other (a BIGINT)")
	_, err = p.Execute(sqltypes.NewBigInt(1))
	if !errors.Is(err, ErrPlanStale) {
		t.Fatalf("after DDL: err = %v, want ErrPlanStale", err)
	}
	// Re-preparing from the same text works against the new catalog.
	p2, err := d.Prepare(p.SQL())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if _, err := p2.Execute(sqltypes.NewBigInt(1)); err != nil {
		t.Fatal(err)
	}
}

func TestPreparedClosedErrors(t *testing.T) {
	d := preparedFixture(t)
	p, err := d.Prepare("SELECT i FROM pts")
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Execute(); err == nil {
		t.Fatal("Execute succeeded on a closed statement")
	}
}

func TestViewRejectsParams(t *testing.T) {
	d := preparedFixture(t)
	_, err := d.Exec("CREATE VIEW v AS SELECT i FROM pts WHERE i = ?")
	if err == nil || !strings.Contains(err.Error(), "?") {
		t.Fatalf("view with params: err = %v", err)
	}
}

func TestPlanCacheCounters(t *testing.T) {
	d := preparedFixture(t)
	hits0 := obs.PlanCacheHits.Value()
	misses0 := obs.PlanCacheMisses.Value()

	const q = "SELECT i, x FROM pts WHERE i = 4"
	if _, err := d.Exec(q); err != nil { // miss: first sighting plans and caches
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // five hits
		res, err := d.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("rows %v", res.Rows)
		}
	}
	if hits := obs.PlanCacheHits.Value() - hits0; hits < 5 {
		t.Fatalf("plan cache hits = %d, want >= 5", hits)
	}
	if misses := obs.PlanCacheMisses.Value() - misses0; misses < 1 {
		t.Fatalf("plan cache misses = %d, want >= 1", misses)
	}
}

func TestPlanCacheInvalidatedByDDL(t *testing.T) {
	d := preparedFixture(t)
	const q = "SELECT i FROM pts WHERE i = 1"
	for i := 0; i < 3; i++ {
		if _, err := d.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	inv0 := obs.PlanCacheInvalidations.Value()
	mustExec(t, d, "CREATE TABLE bump (a BIGINT)")
	// The next lookup sees the epoch moved and re-plans rather than
	// serving the stale entry.
	if _, err := d.Exec(q); err != nil {
		t.Fatal(err)
	}
	if inv := obs.PlanCacheInvalidations.Value() - inv0; inv < 1 {
		t.Fatalf("invalidations = %d, want >= 1", inv)
	}
	// DROP of a cached plan's own table must not let the old plan run.
	mustExec(t, d, "DROP TABLE pts")
	if _, err := d.Exec(q); err == nil {
		t.Fatal("query against dropped table served from the plan cache")
	}
}

func TestPlanCacheEviction(t *testing.T) {
	d := preparedFixture(t)
	ev0 := obs.PlanCacheEvictions.Value()
	// Overflow the LRU with distinct texts.
	for i := 0; i < defaultPlanCacheSize+10; i++ {
		if _, err := d.Exec(fmt.Sprintf("SELECT i FROM pts WHERE i = %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if ev := obs.PlanCacheEvictions.Value() - ev0; ev < 10 {
		t.Fatalf("evictions = %d, want >= 10", ev)
	}
}

func TestSysPrepared(t *testing.T) {
	d := preparedFixture(t)
	p, err := d.Prepare("SELECT i FROM pts WHERE i = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 3; i++ {
		if _, err := p.Execute(sqltypes.NewBigInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := d.Exec("SELECT sql_text, params, executions FROM sys.prepared")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if row[0].Str() == p.SQL() {
			found = true
			if row[1].Int() != 1 || row[2].Int() != 3 {
				t.Fatalf("sys.prepared row %v, want params=1 executions=3", row)
			}
		}
	}
	if !found {
		t.Fatalf("statement missing from sys.prepared: %v", res.Rows)
	}
	p.Close()
	res, err = d.Exec("SELECT sql_text FROM sys.prepared")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row[0].Str() == p.SQL() {
			t.Fatal("closed statement still listed in sys.prepared")
		}
	}
}

// TestSysTablesNotPreparable: system tables are materialized fresh per
// statement, so a prepared (or plan-cached) sys.* SELECT would replay
// one frozen snapshot forever. Prepare must refuse them, and repeated
// ad-hoc reads through Exec's plan-cache path must see fresh state.
func TestSysTablesNotPreparable(t *testing.T) {
	d := preparedFixture(t)
	if _, err := d.Prepare("SELECT name FROM sys.tables"); err == nil {
		t.Fatal("Prepare of a system-table SELECT succeeded")
	}

	// The sharp edge: sys.queries changes on every statement but no DDL
	// happens, so the catalog epoch never moves — a plan-cached snapshot
	// would never be invalidated and the same text would replay one
	// frozen result forever. Each read must see the queries before it.
	countQueries := func() int {
		res, err := d.Exec("SELECT id FROM sys.queries")
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}
	first := countQueries()
	if _, err := d.Exec("SELECT i FROM pts WHERE i = 1"); err != nil {
		t.Fatal(err)
	}
	if second := countQueries(); second <= first {
		t.Fatalf("sys.queries served a stale snapshot: %d rows then %d", first, second)
	}
}

// TestPreparedDDLRace interleaves EXECUTE with CREATE/DROP under -race:
// every execution must either run the pre-DDL plan consistently or
// fail with ErrPlanStale — never execute against a mismatched schema
// or trip the race detector.
func TestPreparedDDLRace(t *testing.T) {
	d := preparedFixture(t)
	p, err := d.Prepare("SELECT i, x FROM pts WHERE i = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var churn, workers sync.WaitGroup
	stop := make(chan struct{})
	churn.Add(1)
	go func() { // DDL churn: epoch moves constantly
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("churn%d", i%4)
			d.Exec("CREATE TABLE " + name + " (a BIGINT)")
			d.Exec("DROP TABLE " + name)
		}
	}()
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 50; i++ {
				res, err := p.Execute(sqltypes.NewBigInt(int64(i % 10)))
				if errors.Is(err, ErrPlanStale) {
					// Typed staleness: re-prepare and go on, like a
					// server session would.
					np, perr := d.Prepare(p.SQL())
					if perr != nil {
						t.Errorf("re-prepare: %v", perr)
						return
					}
					np.Close()
					continue
				}
				if err != nil {
					t.Errorf("execute: %v", err)
					return
				}
				// Schema must always be the plan's two columns — a
				// mismatched-schema execution would betray a plan built
				// against one catalog running against another.
				if len(res.Schema.Columns) != 2 {
					t.Errorf("schema drifted: %v", res.Schema.Columns)
					return
				}
			}
		}(w)
	}
	// Plan-cache dispatch races the same churn.
	workers.Add(1)
	go func() {
		defer workers.Done()
		for i := 0; i < 100; i++ {
			if _, err := d.Exec("SELECT i FROM pts WHERE i = 1"); err != nil {
				t.Errorf("cached dispatch: %v", err)
				return
			}
		}
	}()
	workers.Wait()
	close(stop)
	churn.Wait()
}

// A `?` statement run through Prepare/Execute returns the same rows,
// in the same order, as the ad-hoc statement with the literals written
// in: one plan serves both, with parameters bound into evaluator slots
// rather than rebound as literals.
func TestPreparedMatchesLiteralText(t *testing.T) {
	d := preparedFixture(t)
	mustExec(t, d, "CREATE TABLE m (j BIGINT, w DOUBLE)")
	mustExec(t, d, "INSERT INTO m VALUES (1, 0.5), (2, 2.0), (3, -1.0)")
	big, dbl := sqltypes.NewBigInt, sqltypes.NewDouble
	cases := []struct {
		name, sql string
		args      []sqltypes.Value
	}{
		{"aggregate args", "SELECT count(*), avg(x + ?) FROM pts WHERE i > ?", []sqltypes.Value{big(3), big(4)}},
		{"same call, two slots", "SELECT sum(x * ?), sum(x * ?) FROM pts", []sqltypes.Value{big(1), big(2)}},
		{"group by", "SELECT sum(x) FROM pts GROUP BY i % ?", []sqltypes.Value{big(3)}},
		{"having", "SELECT i % 3, count(*) FROM pts GROUP BY i % 3 HAVING sum(x) > ?", []sqltypes.Value{dbl(15.5)}},
		{"post-aggregate item", "SELECT i % 3, sum(x) * ? FROM pts GROUP BY i % 3", []sqltypes.Value{dbl(0.25)}},
		{"tail join push-down", "SELECT i, w FROM pts CROSS JOIN m WHERE m.j = ? AND i < ?", []sqltypes.Value{big(2), big(5)}},
		{"tail join aggregate", "SELECT m.j, sum(x * w) FROM pts CROSS JOIN m WHERE m.j > ? GROUP BY m.j", []sqltypes.Value{big(1)}},
		{"from-less", "SELECT ? + 1, ? * 2", []sqltypes.Value{big(41), dbl(0.5)}},
		{"order by ordinal", "SELECT i, 9 - i FROM pts ORDER BY ?", []sqltypes.Value{big(2)}},
		{"order by ordinal desc", "SELECT x, i FROM pts WHERE i > ? ORDER BY ? DESC", []sqltypes.Value{big(2), big(1)}},
		{"order by hidden key", "SELECT i FROM pts ORDER BY x * ?", []sqltypes.Value{big(-1)}},
		{"limit", "SELECT i FROM pts WHERE x > ? ORDER BY i DESC LIMIT 3", []sqltypes.Value{dbl(2)}},
	}
	render := func(rows []sqltypes.Row) string {
		var b strings.Builder
		for _, r := range rows {
			for _, v := range r {
				fmt.Fprintf(&b, "%d:%s ", v.Type(), v)
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := d.Prepare(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			prepared, err := p.Execute(tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			text := tc.sql
			for _, a := range tc.args {
				lit := a.String()
				if a.Type() == sqltypes.TypeDouble && !strings.ContainsAny(lit, ".e") {
					lit += ".0"
				}
				text = strings.Replace(text, "?", lit, 1)
			}
			adhoc, err := d.Exec(text)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			if got, want := render(prepared.Rows), render(adhoc.Rows); got != want || len(adhoc.Rows) == 0 {
				t.Fatalf("prepared:\n%s\nliteral %s:\n%s", got, text, want)
			}
		})
	}

	// Matching GROUP BY expressions by text is slot-aware: `i + ?` in the
	// select list and `i + ?` in GROUP BY read different slots, so the
	// item is not a grouping key and the statement is refused at
	// prepare, whatever values the two slots would be bound to.
	if _, err := d.Prepare("SELECT i + ? FROM pts GROUP BY i + ?"); err == nil || !strings.Contains(err.Error(), "GROUP BY") {
		t.Fatalf("GROUP BY over a different slot: err = %v", err)
	}
}
