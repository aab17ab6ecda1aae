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
