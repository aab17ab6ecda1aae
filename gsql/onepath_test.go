package gsql

import (
	"fmt"
	"sort"
	"testing"
)

// TestQueryHonoursJoinMode checks that the streaming entry points —
// Session.Query and Stmt.Query — bind a SELECT exactly as Exec does: the
// session's SET JOIN mode and AUTO's catalog row estimates decide the
// strategy, and every entry point reports the same strategy and rows.
func TestQueryHonoursJoinMode(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)
	// The inner lookup binds only a PK prefix of lines, so AUTO weighs the
	// row estimates: 6 outer orders are too few for a pushed prefix lookup,
	// and 5 inner lines are within the hash fan factor, so AUTO hashes.
	const join = `SELECT o.o_id, l.item FROM orders o JOIN lines l
		ON l.w_id = o.w_id AND l.o_id = o.o_id`
	query := func(rows *Rows, err error) (string, []string) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var got [][]any
		for rows.Next() {
			got = append(got, rows.Row())
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		out := rowStrings(got)
		sort.Strings(out)
		return rows.JoinStrategy(), out
	}
	st, err := s.Prepare(bg, join)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ mode, want string }{
		{"AUTO", "hash"},
		{"NESTLOOP", "nested-loop"},
		{"HASH", "hash"},
		{"LOOKUP", "lookup-pushdown"},
	} {
		exec(t, s, "SET JOIN = "+tc.mode)
		res := exec(t, s, join)
		want := rowStrings(res.Rows)
		sort.Strings(want)
		if res.JoinStrategy != tc.want {
			t.Fatalf("SET JOIN = %s: Exec ran %q, want %q", tc.mode, res.JoinStrategy, tc.want)
		}
		for name, run := range map[string]func() (*Rows, error){
			"Session.Query": func() (*Rows, error) { return s.Query(bg, join) },
			"Stmt.Query":    func() (*Rows, error) { return st.Query(bg) },
		} {
			strategy, got := query(run())
			if strategy != tc.want {
				t.Fatalf("SET JOIN = %s: %s ran %q, Exec ran %q", tc.mode, name, strategy, tc.want)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("SET JOIN = %s: %s rows %v, Exec rows %v", tc.mode, name, got, want)
			}
		}
	}
	exec(t, s, "SET JOIN = AUTO")
	if strategy, _ := query(s.Query(bg, "SELECT * FROM orders WHERE w_id = 1")); strategy != "" {
		t.Fatalf("single-table Query reported join strategy %q", strategy)
	}
}

// TestDMLScanStatsShowPushdown checks that UPDATE and DELETE find their
// rows on the SELECT pipeline: a filtered statement on a PK prefix runs its
// non-key predicate on the data nodes, so only the affected rows cross the
// WAN, and Result.Scan reports it. With pushdown off the same statement
// ships every candidate row and affects the same rows.
func TestDMLScanStatsShowPushdown(t *testing.T) {
	s := openSQL(t)
	loadOrders(t, s)

	// Warehouse 1 holds 3 orders, 2 of them open.
	upd := exec(t, s, "UPDATE orders SET amount = amount + 1 WHERE w_id = 1 AND status = 'open'")
	if upd.Affected != 2 {
		t.Fatalf("UPDATE affected %d, want 2", upd.Affected)
	}
	if sc := upd.Scan; sc.StorageRows != 3 || sc.DNFilteredRows != 1 || sc.WANRows != int64(upd.Affected) {
		t.Fatalf("UPDATE scan = %+v, want storage=3 dn-filtered=1 wan=%d", sc, upd.Affected)
	}

	s.SetPushdown(false)
	off := exec(t, s, "UPDATE orders SET amount = amount - 1 WHERE w_id = 1 AND status = 'open'")
	s.SetPushdown(true)
	if off.Affected != 2 || off.Scan.DNFilteredRows != 0 || off.Scan.WANRows != 3 {
		t.Fatalf("UPDATE with pushdown off: affected %d, scan %+v; want 2 affected, 3 rows shipped", off.Affected, off.Scan)
	}

	del := exec(t, s, "DELETE FROM orders WHERE w_id = 1 AND status = 'open'")
	if del.Affected != 2 {
		t.Fatalf("DELETE affected %d, want 2", del.Affected)
	}
	if sc := del.Scan; sc.DNFilteredRows == 0 || sc.WANRows != int64(del.Affected) {
		t.Fatalf("DELETE scan = %+v, want DN-filtered rows and wan=%d", sc, del.Affected)
	}
	left := exec(t, s, "SELECT o_id, amount FROM orders WHERE w_id = 1")
	if len(left.Rows) != 1 || left.Rows[0][0] != int64(2) || left.Rows[0][1] != 75.5 {
		t.Fatalf("warehouse 1 after DELETE: %v, want [[2 75.5]]", left.Rows)
	}
}

// TestNegativeZeroIsZero pins one equality for DOUBLE values: -0.0 and 0.0
// are the same primary key, every access path returns the same rows for
// them, and CN-side GROUP BY, DISTINCT and COUNT(DISTINCT) put them in one
// group — the same equality the key encoding and the WHERE clause use.
func TestNegativeZeroIsZero(t *testing.T) {
	s := openSQL(t)
	exec(t, s, "CREATE TABLE fpk (v DOUBLE, n BIGINT, PRIMARY KEY (v))")
	exec(t, s, "INSERT INTO fpk VALUES (0.0, 1)")
	exec(t, s, "INSERT INTO fpk VALUES (-0.0, 2)") // lands on 0.0's key
	exec(t, s, "INSERT INTO fpk VALUES (1.5, 3)")
	point := rowStrings(exec(t, s, "SELECT * FROM fpk WHERE v = 0.0").Rows)
	scan := rowStrings(exec(t, s, "SELECT * FROM fpk WHERE ABS(v) = 0.0").Rows)
	if len(point) != 1 || fmt.Sprint(point) != fmt.Sprint(scan) {
		t.Fatalf("point get %v vs full scan %v: want the same single row", point, scan)
	}
	if n := exec(t, s, "SELECT COUNT(*) FROM fpk").Rows[0][0]; n != int64(2) {
		t.Fatalf("fpk holds %v rows, want 2 (-0.0 is the key 0.0)", n)
	}

	// v * sgn computes +0 for one row and -0 for the other on the CN.
	exec(t, s, "CREATE TABLE fz (k BIGINT, v DOUBLE, sgn DOUBLE, PRIMARY KEY (k))")
	exec(t, s, "INSERT INTO fz VALUES (1, 0.0, 1.0), (2, 0.0, -1.0), (3, 2.0, 1.0)")
	if got := exec(t, s, "SELECT DISTINCT v * sgn FROM fz").Rows; len(got) != 2 {
		t.Fatalf("DISTINCT over ±0 and 2: %v, want 2 rows", got)
	}
	grouped := exec(t, s, "SELECT v * sgn, COUNT(*) FROM fz GROUP BY v * sgn ORDER BY COUNT(*) DESC").Rows
	if len(grouped) != 2 || grouped[0][1] != int64(2) {
		t.Fatalf("GROUP BY over ±0 and 2: %v, want the zeros in one group of 2", grouped)
	}
	if n := exec(t, s, "SELECT COUNT(DISTINCT v * sgn) FROM fz").Rows[0][0]; n != int64(2) {
		t.Fatalf("COUNT(DISTINCT) over ±0 and 2 = %v, want 2", n)
	}
}

// TestAggregatesInScalarContexts checks that an aggregate call works
// anywhere a value does in outputs and HAVING — inside scalar functions,
// BETWEEN and IN — and that HAVING short-circuits AND exactly as WHERE
// does, with pushdown on and off.
func TestAggregatesInScalarContexts(t *testing.T) {
	s := openSQL(t)
	exec(t, s, "CREATE TABLE p (k BIGINT, g BIGINT, x BIGINT, PRIMARY KEY (k))")
	exec(t, s, "INSERT INTO p VALUES (1, 1, -5), (2, 1, 3), (3, 2, 7)")
	for _, tc := range []struct{ sql, want string }{
		{"SELECT ABS(SUM(x)) FROM p", "[[5]]"},
		{"SELECT COALESCE(MAX(x), 0) FROM p", "[[7]]"},
		{"SELECT g FROM p GROUP BY g HAVING SUM(x) BETWEEN -3 AND 0 ORDER BY g", "[[1]]"},
		{"SELECT g FROM p GROUP BY g HAVING SUM(x) IN (-2, 7) ORDER BY g", "[[1] [2]]"},
		{"SELECT g FROM p GROUP BY g HAVING COUNT(*) > 5 AND SUM(x) / 0 > 1", "[]"},
	} {
		for _, push := range []bool{true, false} {
			s.SetPushdown(push)
			res, err := s.Exec(bg, tc.sql)
			if err != nil {
				t.Fatalf("%s (pushdown %v): %v", tc.sql, push, err)
			}
			if got := fmt.Sprint(res.Rows); got != tc.want {
				t.Fatalf("%s (pushdown %v) = %s, want %s", tc.sql, push, got, tc.want)
			}
		}
	}
	s.SetPushdown(true)
}

// TestWritePlanCached checks that UPDATE and DELETE are planned once per
// cached statement: repeated executions reuse the plan, and DDL that
// moves the target column replans rather than writing by stale positions.
func TestWritePlanCached(t *testing.T) {
	s := openSQL(t)
	exec(t, s, "CREATE TABLE acct (k BIGINT, a BIGINT, b BIGINT, PRIMARY KEY (k))")
	exec(t, s, "INSERT INTO acct VALUES (1, 10, 100), (2, 20, 200)")
	const upd = "UPDATE acct SET b = b + ? WHERE k = ?"
	st, err := s.Prepare(bg, upd)
	if err != nil {
		t.Fatal(err)
	}
	wp := st.cs.write
	if wp == nil {
		t.Fatal("prepared UPDATE carries no plan")
	}
	hits0, misses0, _ := s.PlanCacheStats()
	for i := 0; i < 3; i++ {
		if res, err := st.Exec(bg, 1, 1); err != nil || res.Affected != 1 {
			t.Fatalf("prepared UPDATE: %v %v", res, err)
		}
		if res, err := s.Exec(bg, upd, 1, 2); err != nil || res.Affected != 1 {
			t.Fatalf("UPDATE: %v %v", res, err)
		}
	}
	hits1, misses1, _ := s.PlanCacheStats()
	if hits1-hits0 != 3 || misses1 != misses0 || st.cs.write != wp {
		t.Fatalf("repeated UPDATE replanned: %d hits, %d misses, plan reused %v",
			hits1-hits0, misses1-misses0, st.cs.write == wp)
	}
	if got := fmt.Sprint(exec(t, s, "SELECT k, a, b FROM acct ORDER BY k").Rows); got != "[[1 10 103] [2 20 203]]" {
		t.Fatalf("after UPDATEs: %s", got)
	}

	// Same table name, b at a different position: the cached plans must
	// not write by the old column positions.
	exec(t, s, "DROP TABLE acct")
	exec(t, s, "CREATE TABLE acct (k BIGINT, b BIGINT, a BIGINT, PRIMARY KEY (k))")
	exec(t, s, "INSERT INTO acct VALUES (1, 100, 10)")
	if res, err := st.Exec(bg, 5, 1); err != nil || res.Affected != 1 {
		t.Fatalf("prepared UPDATE after DDL: %v %v", res, err)
	}
	if st.cs.write == wp {
		t.Fatal("prepared UPDATE was not replanned after DDL")
	}
	if _, err := s.Exec(bg, upd, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(exec(t, s, "SELECT k, a, b FROM acct").Rows); got != "[[1 10 106]]" {
		t.Fatalf("after DDL: %s, want [[1 10 106]]", got)
	}
	del, err := s.Prepare(bg, "DELETE FROM acct WHERE k = ?")
	if err != nil {
		t.Fatal(err)
	}
	if del.cs.write == nil {
		t.Fatal("prepared DELETE carries no plan")
	}
	if res, err := del.Exec(bg, 1); err != nil || res.Affected != 1 {
		t.Fatalf("prepared DELETE: %v %v", res, err)
	}
}
