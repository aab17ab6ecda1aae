package main

import (
	"context"
	"fmt"

	"globaldb"
	"globaldb/gsql"
)

// sql-local data: accounts SHARD BY branch, plus a small branch table.
const (
	sqlBranches = 12
	sqlAccounts = 4000
	sqlGroups   = 50 // grp = an account's position in its branch % sqlGroups; grp 0 is the hot set
	sqlKinds    = 4
	sqlHotPct   = 80 // % of DML that hits the hot set
)

const (
	sqlPoint   = "SELECT a_id, bal, kind FROM account WHERE b_id = ? AND a_id = ?"
	sqlAgg     = "SELECT kind, COUNT(*), SUM(bal) FROM account WHERE b_id = ? AND bal > ? GROUP BY kind"
	sqlJoin    = "SELECT a.a_id, a.bal, b.name FROM account a JOIN branch b ON b.b_id = a.b_id WHERE a.b_id = ? AND a.kind = ? LIMIT 10"
	sqlUpdPK   = "UPDATE account SET bal = bal + ? WHERE b_id = ? AND a_id = ?"
	sqlUpdGrp  = "UPDATE account SET bal = bal + ? WHERE b_id = ? AND grp = ?"
	sqlTotals  = "SELECT COUNT(*), SUM(bal) FROM account"
	sqlInitBal = 1000
)

// sqlWL is the CPU-bound SQL path: OneRegion with zero RTT and no WAL,
// every operation through gsql prepared statements. The loaded data is
// fixed; the seed drives only the clients' operations.
type sqlWL struct {
	d *globaldb.DB

	count0, sum0 int64 // totals when the clients were bound
	applied      [numClients]int64
}

// sqlClient is one client's SQL session.
type sqlClient struct {
	s            *gsql.Session
	region       string
	hits, misses uint64 // plan-cache counters already accounted
}

func newSQL() *sqlWL { return &sqlWL{} }

func (w *sqlWL) db() *globaldb.DB { return w.d }

func (w *sqlWL) setup(ctx context.Context) error {
	d, err := globaldb.Open(globaldb.OneRegion(0))
	if err != nil {
		return err
	}
	w.d = d
	s, err := gsql.Connect(d, "node1")
	if err != nil {
		return err
	}
	for _, ddl := range []string{
		"CREATE TABLE branch (b_id BIGINT, name TEXT, city TEXT, PRIMARY KEY (b_id))",
		"CREATE TABLE account (b_id BIGINT, a_id BIGINT, grp BIGINT, kind BIGINT, bal BIGINT, PRIMARY KEY (b_id, a_id)) SHARD BY b_id",
	} {
		if _, err := s.Exec(ctx, ddl); err != nil {
			return fmt.Errorf("%s: %w", ddl, err)
		}
	}
	sess, err := d.Connect("node1")
	if err != nil {
		return err
	}
	tx, err := sess.Begin(ctx)
	if err != nil {
		return err
	}
	for b := int64(1); b <= sqlBranches; b++ {
		if err := tx.Insert(ctx, "branch", globaldb.Row{b, fmt.Sprintf("branch-%02d", b), fmt.Sprintf("city-%d", b%3)}); err != nil {
			return err
		}
	}
	if err := tx.Commit(ctx); err != nil {
		return err
	}
	// Accounts a_id 1..4000 round-robin over the branches, loaded one
	// branch per transaction.
	for b := int64(1); b <= sqlBranches; b++ {
		tx, err := sess.Begin(ctx)
		if err != nil {
			return err
		}
		for i := int64(0); i <= branchLast(b); i++ {
			a := b + sqlBranches*i
			row := globaldb.Row{b, a, i % sqlGroups, i % sqlKinds, int64(sqlInitBal)}
			if err := tx.Insert(ctx, "account", row); err != nil {
				return err
			}
		}
		if err := tx.Commit(ctx); err != nil {
			return err
		}
	}
	return waitRCP(ctx, d)
}

func (w *sqlWL) close() {
	if w.d != nil {
		w.d.Close()
	}
}

func (w *sqlWL) bind(ctx context.Context, clients []*client) error {
	for i, c := range clients {
		s, err := gsql.Connect(w.d, fmt.Sprintf("node%d", i+1))
		if err != nil {
			return err
		}
		c.private = &sqlClient{s: s, region: fmt.Sprintf("node%d", i+1)}
	}
	var err error
	w.count0, w.sum0, err = w.totals(ctx)
	return err
}

func (w *sqlWL) totals(ctx context.Context) (count, sum int64, err error) {
	s, err := gsql.Connect(w.d, "node3")
	if err != nil {
		return 0, 0, err
	}
	res, err := s.Exec(ctx, sqlTotals)
	if err != nil {
		return 0, 0, err
	}
	if len(res.Rows) != 1 {
		return 0, 0, fmt.Errorf("totals returned %d rows", len(res.Rows))
	}
	count, ok1 := res.Rows[0][0].(int64)
	sum, ok2 := res.Rows[0][1].(int64)
	if !ok1 || !ok2 {
		return 0, 0, fmt.Errorf("totals returned %T, %T", res.Rows[0][0], res.Rows[0][1])
	}
	return count, sum, nil
}

// branchLast is the position of branch b's last account: branch b holds
// a_id b, b+12, b+24, ... up to sqlAccounts.
func branchLast(b int64) int64 { return (sqlAccounts - b) / sqlBranches }

// branchAccount draws an account of branch b: a hot one (grp 0) or any.
func branchAccount(c *client, b int64, hot bool) int64 {
	if hot {
		return b + sqlBranches*sqlGroups*c.rng.Int63n(branchLast(b)/sqlGroups+1)
	}
	return b + sqlBranches*c.rng.Int63n(branchLast(b)+1)
}

func (w *sqlWL) next(c *client) (string, func() error) {
	sc := c.private.(*sqlClient)
	b := int64(1 + c.rng.Intn(sqlBranches))
	switch x := c.rng.Intn(100); {
	case x < 50:
		a := branchAccount(c, b, false)
		return "point", func() error { return w.query(c, sc, sqlPoint, 1, 1, b, a) }
	case x < 70:
		floor := int64(sqlInitBal - 200 + c.rng.Intn(200))
		return "agg", func() error { return w.query(c, sc, sqlAgg, 1, sqlKinds, b, floor) }
	case x < 80:
		kind := int64(c.rng.Intn(sqlKinds))
		return "join", func() error { return w.query(c, sc, sqlJoin, 1, 10, b, kind) }
	default:
		hot := c.rng.Intn(100) < sqlHotPct
		delta := int64(c.rng.Intn(21) - 10)
		if c.rng.Intn(2) == 0 {
			a := branchAccount(c, b, hot)
			return "dml", func() error { return w.update(c, sc, sqlUpdPK, 1, 1, delta, b, a) }
		}
		g := int64(0)
		if !hot {
			g = int64(c.rng.Intn(sqlGroups))
		}
		return "dml", func() error { return w.update(c, sc, sqlUpdGrp, 1, sqlAccounts, delta, b, g) }
	}
}

// query prepares a SELECT (a plan-cache lookup) and streams its rows,
// checking the row count lies in [minRows, maxRows].
func (w *sqlWL) query(c *client, sc *sqlClient, text string, minRows, maxRows int, args ...any) error {
	sp := c.tr.begin("gsql.prepare")
	st, err := sc.s.Prepare(c.ctx, text)
	c.tr.end(sp)
	if err != nil {
		return err
	}
	sp = c.tr.begin("gsql.query")
	rows, err := st.Query(c.ctx, args...)
	n := 0
	if err == nil && rows.Next() {
		n++
	}
	c.tr.end(sp)
	if err != nil {
		return err
	}
	sp = c.tr.begin("gsql.drain")
	for rows.Next() {
		n++
	}
	err = rows.Err()
	if cerr := rows.Close(); err == nil {
		err = cerr
	}
	c.tr.end(sp)
	if err != nil {
		return err
	}
	sc.scanStats(c, rows, n)
	sc.cacheStats(c)
	if n < minRows || n > maxRows {
		return checkFailed("%q %v returned %d rows, want %d..%d", text, args, n, minRows, maxRows)
	}
	return nil
}

func (sc *sqlClient) scanStats(c *client, rows *gsql.Rows, n int) {
	if c.tr == nil {
		return
	}
	st := rows.ScanStats()
	c.count["gsql.rows"] += float64(n)
	c.count["gsql.storage_rows"] += float64(st.StorageRows)
	c.count["gsql.dn_filtered_rows"] += float64(st.DNFilteredRows)
	c.count["gsql.wan_rows"] += float64(st.WANRows)
	c.count["scan.count"]++
	c.count["scan.pages"] += float64(st.PagesFetched)
	c.count["scan.prefetch_hits"] += float64(st.PrefetchHits)
	c.count["scan.wan_wait_us"] += float64(st.WANWait) / 1e3
}

// update runs one UPDATE inside an explicit transaction and, once COMMIT
// succeeds, adds delta × rows affected to the client's expected change of
// SUM(bal).
func (w *sqlWL) update(c *client, sc *sqlClient, text string, minRows, maxRows int, delta int64, args ...any) error {
	sp := c.tr.begin("coordinator.begin")
	_, err := sc.s.Exec(c.ctx, "BEGIN")
	c.tr.end(sp)
	if err != nil {
		return err
	}
	sp = c.tr.begin("gsql.prepare")
	st, err := sc.s.Prepare(c.ctx, text)
	c.tr.end(sp)
	if err != nil {
		return w.rollback(c, sc, err)
	}
	sp = c.tr.begin("gsql.exec")
	res, err := st.Exec(c.ctx, append([]any{delta}, args...)...)
	c.tr.end(sp)
	if err != nil {
		return w.rollback(c, sc, err)
	}
	if res.Affected < minRows || res.Affected > maxRows {
		return w.rollback(c, sc, checkFailed("%q %v updated %d rows, want %d..%d", text, args, res.Affected, minRows, maxRows))
	}
	if c.tr != nil {
		c.count["coordinator.txns"]++
		c.count["coordinator.shards"]++
	}
	sp = c.tr.begin("coordinator.commit_1shard")
	_, err = sc.s.Exec(c.ctx, "COMMIT")
	c.tr.end(sp)
	if c.tr != nil {
		c.sample("clock.err", w.d.Cluster().CN(sc.region).Oracle().ClockState().Err)
	}
	if err != nil {
		return err
	}
	sc.cacheStats(c)
	w.applied[c.id] += delta * int64(res.Affected)
	return nil
}

// cacheStats accounts the session's plan-cache lookups since the last call.
func (sc *sqlClient) cacheStats(c *client) {
	h, m, _ := sc.s.PlanCacheStats()
	if c.tr != nil {
		c.count["gsql.cache_hits"] += float64(h - sc.hits)
		c.count["gsql.cache_misses"] += float64(m - sc.misses)
	}
	sc.hits, sc.misses = h, m
}

func (w *sqlWL) rollback(c *client, sc *sqlClient, err error) error {
	sp := c.tr.begin("coordinator.abort")
	_, _ = sc.s.Exec(c.ctx, "ROLLBACK") // the attempt already failed; err is what the caller reports
	c.tr.end(sp)
	return err
}

// check matches the change in SUM(bal) to the committed deltas and
// requires COUNT(*) unchanged.
func (w *sqlWL) check(ctx context.Context) error {
	count, sum, err := w.totals(ctx)
	if err != nil {
		return err
	}
	var want int64
	for _, a := range w.applied {
		want += a
	}
	if count != w.count0 {
		return fmt.Errorf("COUNT(*) moved from %d to %d", w.count0, count)
	}
	if sum-w.sum0 != want {
		return fmt.Errorf("SUM(bal) moved by %d, committed DML applied %d", sum-w.sum0, want)
	}
	return nil
}

// hotKeys are the grp-0 accounts most DML updates.
func (w *sqlWL) hotKeys() []hotKey {
	sch, err := w.d.Schema("account")
	if err != nil {
		return nil
	}
	var out []hotKey
	for b := int64(1); b <= sqlBranches; b++ {
		for i := int64(0); i <= branchLast(b); i += sqlGroups {
			if k, err := sch.PrimaryKeyFromValues([]any{b, b + sqlBranches*i}); err == nil {
				out = append(out, hotKey{w.d.Cluster().ShardOf(b), k})
			}
		}
	}
	return out
}

func (w *sqlWL) latencies(r *phaseResult) []namedMetric {
	return []namedMetric{
		r.p50("lat1_ms", "point_p50_ms", r.class("point")),
		r.p50("lat2_ms", "agg_p50_ms", r.class("agg")),
		r.p50("lat3_ms", "join_p50_ms", r.class("join")),
		r.p50("lat4_ms", "dml_p50_ms", r.class("dml")),
	}
}
