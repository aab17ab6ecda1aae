package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"globaldb"
	"globaldb/internal/workload/tpcc"
)

// TPC-C scale shared by tpcc-3city and ror-3city.
const (
	tpccWarehouses = 6
	tpccDistricts  = 10
	tpccCustomers  = 30
	tpccItems      = 200
	tpccInitOrders = 10
	remotePct      = 10                     // % of transactions touching a remote warehouse
	rorBound       = 100 * time.Millisecond // staleness bound of ror-3city's reads
)

// tpccWL is the TPC-C cluster: ThreeCity at TimeScale 0.1, WAL on disk
// with group commit. With ror=false both clients run the New-Order/Payment
// write mix (tpcc-3city); with ror=true client 0 runs read-only
// Order-Status/Stock-Level on replicas and client 1 runs New-Order
// (ror-3city).
type tpccWL struct {
	ror    bool
	seed   int64
	walDir string
	d      *globaldb.DB
	drv    *tpcc.Driver

	whShard  [tpccWarehouses + 1]int
	whRegion [tpccWarehouses + 1]string
	homes    [numClients]int64

	histSeq   atomic.Int64
	newOrders atomic.Int64 // New-Orders the benchmark saw commit
	nextOSum  int64        // Σ d_next_o_id when the clients were bound
}

func newTPCC(ror bool, seed int64, dir string) *tpccWL {
	return &tpccWL{ror: ror, seed: seed, walDir: dir}
}

func (w *tpccWL) db() *globaldb.DB { return w.d }

func (w *tpccWL) setup(ctx context.Context) error {
	cfg := globaldb.ThreeCity()
	cfg.TimeScale = 0.1
	if err := os.MkdirAll(w.walDir, 0o755); err != nil {
		return err
	}
	cfg.WALDir = w.walDir
	cfg.WALFsyncDelay = 300 * time.Microsecond
	d, err := globaldb.Open(cfg)
	if err != nil {
		return err
	}
	w.d = d
	w.drv = tpcc.New(d, tpcc.Config{
		Warehouses: tpccWarehouses, Districts: tpccDistricts, CustomersPerDistrict: tpccCustomers,
		Items: tpccItems, InitialOrdersPerDistrict: tpccInitOrders, Seed: w.seed,
	})
	if err := w.drv.CreateTables(ctx); err != nil {
		return err
	}
	if err := w.drv.Load(ctx); err != nil {
		return fmt.Errorf("tpcc load: %w", err)
	}
	return waitRCP(ctx, d)
}

func (w *tpccWL) close() {
	if w.d != nil {
		for _, cn := range w.d.Cluster().CNs() {
			cn.Quiesce()
		}
		w.d.Close()
	}
	os.RemoveAll(w.walDir)
}

// bind homes the two clients at warehouses whose primaries sit in two
// different regions, Xi'an and Dongguan (neither hosts the GTM).
func (w *tpccWL) bind(ctx context.Context, clients []*client) error {
	cl := w.d.Cluster()
	for wh := int64(1); wh <= tpccWarehouses; wh++ {
		w.whShard[wh] = cl.ShardOf(wh)
		w.whRegion[wh] = cl.Primaries()[w.whShard[wh]].Region()
	}
	for i, region := range []string{"xian", "dongguan"} {
		for wh := int64(1); wh <= tpccWarehouses; wh++ {
			if w.whRegion[wh] == region && w.homes[i] == 0 {
				w.homes[i] = wh
			}
		}
		if w.homes[i] == 0 {
			return fmt.Errorf("no warehouse has its primary in %s", region)
		}
		sess, err := w.d.Connect(region)
		if err != nil {
			return err
		}
		clients[i].sess, clients[i].home = sess, w.homes[i]
	}
	sum, err := w.nextOrderSum(ctx)
	w.nextOSum = sum
	return err
}

func (w *tpccWL) next(c *client) (string, func() error) {
	if w.ror {
		if c.id == 1 {
			return w.newOrder(c)
		}
		wh := c.home
		if c.rng.Intn(100) < 50 {
			wh = w.otherWarehouse(c, c.home)
		}
		if c.attempted%2 == 0 {
			return "order_status", w.orderStatus(c, wh)
		}
		return "stock_level", w.stockLevel(c, wh)
	}
	if c.rng.Intn(2) == 0 {
		return w.newOrder(c)
	}
	return w.payment(c)
}

func (w *tpccWL) otherWarehouse(c *client, not int64) int64 {
	x := int64(1 + c.rng.Intn(tpccWarehouses-1))
	if x >= not {
		x++
	}
	return x
}

// --- instrumented read-write transaction ---------------------------------

// btx wraps a globaldb.Tx: each call runs inside a span named by the layer
// it enters, classified local or remote by the region of the target
// warehouse's primary.
type btx struct {
	w      *tpccWL
	c      *client
	tx     *globaldb.Tx
	shards uint64 // bitmask of written shards
}

func (w *tpccWL) begin(c *client) (*btx, error) {
	sp := c.tr.begin("coordinator.begin")
	tx, err := c.sess.Begin(c.ctx)
	c.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &btx{w: w, c: c, tx: tx}, nil
}

func (t *btx) local(wh int64) bool { return t.w.whRegion[wh] == t.c.sess.Region() }

func (t *btx) get(table string, pk ...any) (globaldb.Row, error) {
	wh := pk[0].(int64)
	name := "coordinator.get_remote"
	if t.local(wh) {
		name = "coordinator.get_local"
	}
	sp := t.c.tr.begin(name)
	row, found, err := t.tx.Get(t.c.ctx, table, pk)
	t.c.tr.end(sp)
	if err == nil && !found {
		err = checkFailed("%s %v not found", table, pk)
	}
	return row, err
}

func (t *btx) write(insert bool, table string, row globaldb.Row) error {
	wh := row[0].(int64)
	name := "coordinator.write_remote"
	if t.local(wh) {
		name = "coordinator.write_local"
	}
	sp := t.c.tr.begin(name)
	var err error
	if insert {
		err = t.tx.Insert(t.c.ctx, table, row)
	} else {
		err = t.tx.Update(t.c.ctx, table, row)
	}
	t.c.tr.end(sp)
	t.shards |= 1 << t.w.whShard[wh]
	return err
}

func (t *btx) commit() error {
	n := 0
	for m := t.shards; m != 0; m &= m - 1 {
		n++
	}
	name := "coordinator.commit_multi"
	if n <= 1 {
		name = "coordinator.commit_1shard"
	}
	if t.c.tr != nil {
		t.c.count["coordinator.txns"]++
		t.c.count["coordinator.shards"] += float64(n)
	}
	sp := t.c.tr.begin(name)
	err := t.tx.Commit(t.c.ctx)
	t.c.tr.end(sp)
	if t.c.tr != nil {
		t.c.sample("clock.err", t.c.sess.CN().Oracle().ClockState().Err)
	}
	return err
}

// fail aborts the transaction and returns err.
func (t *btx) fail(err error) error {
	sp := t.c.tr.begin("coordinator.abort")
	_ = t.tx.Abort(t.c.ctx) // the attempt already failed; err is what the caller reports
	t.c.tr.end(sp)
	return err
}

// --- transactions ----------------------------------------------------------

type orderLine struct {
	item, supply, qty int64
}

// newOrder draws one New-Order's inputs and returns its attempt. In
// remotePct% of New-Orders one line is supplied by a remote warehouse (the
// specification's 1% of lines gives about the same share of orders).
func (w *tpccWL) newOrder(c *client) (string, func() error) {
	wh := c.home
	did := int64(1 + c.rng.Intn(tpccDistricts))
	cid := int64(1 + c.rng.Intn(tpccCustomers))
	lines := make([]orderLine, 5+c.rng.Intn(11))
	// ror-3city's writer stays local, so that workload barely touches 2PC:
	// with 10% remote New-Orders beside the reader, its throughput swung
	// between 587 and 1 242 ops/s over ten 20 s runs while the reader's
	// per-class medians held within 15%.
	remote := c.rng.Intn(100) < remotePct && !w.ror
	for i := range lines {
		lines[i] = orderLine{item: int64(1 + c.rng.Intn(tpccItems)), supply: wh, qty: int64(1 + c.rng.Intn(10))}
	}
	class := "new_order"
	if remote {
		lines[c.rng.Intn(len(lines))].supply = w.otherWarehouse(c, wh)
		class = "new_order_remote"
	}
	return class, func() error {
		t, err := w.begin(c)
		if err != nil {
			return err
		}
		wRow, err := t.get(tpcc.TWarehouse, wh)
		if err != nil {
			return t.fail(err)
		}
		dRow, err := t.get(tpcc.TDistrict, wh, did)
		if err != nil {
			return t.fail(err)
		}
		if _, err := t.get(tpcc.TCustomer, wh, did, cid); err != nil {
			return t.fail(err)
		}
		oid := dRow[5].(int64)
		dRow[5] = oid + 1
		if err := t.write(false, tpcc.TDistrict, dRow); err != nil {
			return t.fail(err)
		}
		if err := t.write(true, tpcc.TOrders, globaldb.Row{wh, did, oid, cid, int64(0), int64(len(lines)), time.Now().UnixNano()}); err != nil {
			return t.fail(err)
		}
		if err := t.write(true, tpcc.TNewOrder, globaldb.Row{wh, did, oid}); err != nil {
			return t.fail(err)
		}
		tax := 1 + wRow[2].(float64) + dRow[3].(float64)
		for i, l := range lines {
			iRow, err := t.get(tpcc.TItem, l.supply, l.item)
			if err != nil {
				return t.fail(err)
			}
			sRow, err := t.get(tpcc.TStock, l.supply, l.item)
			if err != nil {
				return t.fail(err)
			}
			if q := sRow[2].(int64); q >= l.qty+10 {
				sRow[2] = q - l.qty
			} else {
				sRow[2] = q - l.qty + 91
			}
			sRow[3] = sRow[3].(int64) + l.qty
			sRow[4] = sRow[4].(int64) + 1
			if l.supply != wh {
				sRow[5] = sRow[5].(int64) + 1
			}
			if err := t.write(false, tpcc.TStock, sRow); err != nil {
				return t.fail(err)
			}
			amount := float64(l.qty) * iRow[3].(float64) * tax
			if err := t.write(true, tpcc.TOrderLine, globaldb.Row{wh, did, oid, int64(i + 1), l.item, l.supply, l.qty, amount}); err != nil {
				return t.fail(err)
			}
		}
		if err := t.commit(); err != nil {
			return err
		}
		w.newOrders.Add(1)
		return nil
	}
}

// payment draws one Payment's inputs; remotePct% pay for a customer of a
// remote warehouse.
func (w *tpccWL) payment(c *client) (string, func() error) {
	wh := c.home
	did := int64(1 + c.rng.Intn(tpccDistricts))
	cw, cd := wh, did
	class := "payment"
	if c.rng.Intn(100) < remotePct {
		cw, cd = w.otherWarehouse(c, wh), int64(1+c.rng.Intn(tpccDistricts))
		class = "payment_remote"
	}
	cid := int64(1 + c.rng.Intn(tpccCustomers))
	amount := float64(1+c.rng.Intn(500000)) / 100
	return class, func() error {
		t, err := w.begin(c)
		if err != nil {
			return err
		}
		wRow, err := t.get(tpcc.TWarehouse, wh)
		if err != nil {
			return t.fail(err)
		}
		wRow[3] = wRow[3].(float64) + amount
		if err := t.write(false, tpcc.TWarehouse, wRow); err != nil {
			return t.fail(err)
		}
		dRow, err := t.get(tpcc.TDistrict, wh, did)
		if err != nil {
			return t.fail(err)
		}
		dRow[4] = dRow[4].(float64) + amount
		if err := t.write(false, tpcc.TDistrict, dRow); err != nil {
			return t.fail(err)
		}
		cRow, err := t.get(tpcc.TCustomer, cw, cd, cid)
		if err != nil {
			return t.fail(err)
		}
		cRow[5] = cRow[5].(float64) - amount
		cRow[6] = cRow[6].(float64) + amount
		cRow[7] = cRow[7].(int64) + 1
		if err := t.write(false, tpcc.TCustomer, cRow); err != nil {
			return t.fail(err)
		}
		if err := t.write(true, tpcc.THistory, globaldb.Row{wh, w.histSeq.Add(1), did, cid, amount, "payment"}); err != nil {
			return t.fail(err)
		}
		return t.commit()
	}
}

// --- read-only queries on replicas ----------------------------------------

var rorTables = []string{tpcc.TCustomer, tpcc.TOrders, tpcc.TOrderLine, tpcc.TDistrict, tpcc.TStock}

// bq wraps a globaldb.Query with spans and scan accounting.
type bq struct {
	c *client
	q *globaldb.Query
}

// readOnly opens a read-only query and checks its freshness: a query served
// by replicas must be no staler than the bound plus the clock error.
func (w *tpccWL) readOnly(c *client) (*bq, error) {
	start := time.Now()
	sp := c.tr.begin("ror.readonly")
	q, err := c.sess.ReadOnly(c.ctx, rorBound, rorTables...)
	c.tr.end(sp)
	if err != nil {
		return nil, err
	}
	stale := start.Sub(q.Snapshot().Time())
	c.sample("staleness", stale)
	c.count["ror.queries"]++
	if q.OnReplicas() {
		c.count["ror.replica"]++
		if errBound := c.sess.CN().Oracle().ClockState().Err; stale > rorBound+errBound {
			return nil, checkFailed("replica read %v stale, bound %v + clock error %v", stale, rorBound, errBound)
		}
	}
	return &bq{c: c, q: q}, nil
}

func (b *bq) get(table string, pk ...any) (globaldb.Row, bool, error) {
	sp := b.c.tr.begin("ror.get")
	row, found, err := b.q.Get(b.c.ctx, table, pk)
	b.c.tr.end(sp)
	return row, found, err
}

// drain reads a scan to the end and accounts its ScanStats.
func (b *bq) drain(rows *globaldb.Rows, sp int) ([]globaldb.Row, error) {
	var out []globaldb.Row
	for rows.Next() {
		out = append(out, rows.Row())
	}
	err := rows.Err()
	rows.Close()
	b.c.tr.end(sp)
	st := rows.ScanStats()
	b.c.count["scan.count"]++
	b.c.count["scan.pages"] += float64(st.PagesFetched)
	b.c.count["scan.prefetch_hits"] += float64(st.PrefetchHits)
	b.c.count["scan.wan_wait_us"] += float64(st.WANWait) / 1e3
	return out, err
}

func (b *bq) scanPK(table string, prefix ...any) ([]globaldb.Row, error) {
	sp := b.c.tr.begin("ror.scan")
	rows, err := b.q.ScanPKRows(b.c.ctx, table, prefix, globaldb.ScanOpts{})
	if err != nil {
		b.c.tr.end(sp)
		return nil, err
	}
	return b.drain(rows, sp)
}

func (b *bq) scanIndex(table, index string, prefix ...any) ([]globaldb.Row, error) {
	sp := b.c.tr.begin("ror.scan")
	rows, err := b.q.ScanIndexRows(b.c.ctx, table, index, prefix, globaldb.ScanOpts{})
	if err != nil {
		b.c.tr.end(sp)
		return nil, err
	}
	return b.drain(rows, sp)
}

// orderStatus finds a customer (60% by last name, 40% by id), the
// customer's latest order and its lines. The order must have exactly
// o_ol_cnt lines at the query's snapshot: a torn snapshot fails the check.
func (w *tpccWL) orderStatus(c *client, wh int64) func() error {
	did := int64(1 + c.rng.Intn(tpccDistricts))
	num := 1 + c.rng.Intn(tpccCustomers)
	byName := c.rng.Intn(100) < 60
	return func() error {
		b, err := w.readOnly(c)
		if err != nil {
			return err
		}
		cid := int64(num)
		if byName {
			custs, err := b.scanIndex(tpcc.TCustomer, "customer_name", wh, did, tpcc.LastName(num%1000))
			if err != nil {
				return err
			}
			if len(custs) == 0 {
				return checkFailed("no customer named %s in %d/%d", tpcc.LastName(num%1000), wh, did)
			}
			cid = custs[len(custs)/2][2].(int64)
		} else if _, found, err := b.get(tpcc.TCustomer, wh, did, cid); err != nil {
			return err
		} else if !found {
			return checkFailed("customer %d/%d/%d not found", wh, did, cid)
		}
		orders, err := b.scanIndex(tpcc.TOrders, "orders_customer", wh, did, cid)
		if err != nil || len(orders) == 0 {
			return err
		}
		last := orders[len(orders)-1]
		lines, err := b.scanPK(tpcc.TOrderLine, wh, did, last[2].(int64))
		if err != nil {
			return err
		}
		c.count["ror.orders_checked"]++
		if int64(len(lines)) != last[5].(int64) {
			return checkFailed("order %d/%d/%d has %d lines, o_ol_cnt=%d", wh, did, last[2], len(lines), last[5])
		}
		return nil
	}
}

// stockLevel counts distinct items of the district's last 20 orders whose
// stock is below a threshold.
func (w *tpccWL) stockLevel(c *client, wh int64) func() error {
	did := int64(1 + c.rng.Intn(tpccDistricts))
	threshold := int64(10 + c.rng.Intn(11))
	return func() error {
		b, err := w.readOnly(c)
		if err != nil {
			return err
		}
		dRow, found, err := b.get(tpcc.TDistrict, wh, did)
		if err != nil {
			return err
		}
		if !found {
			return checkFailed("district %d/%d not found", wh, did)
		}
		nextO := dRow[5].(int64)
		seen := map[int64]bool{}
		low := 0
		for oid := max(1, nextO-20); oid < nextO; oid++ {
			lines, err := b.scanPK(tpcc.TOrderLine, wh, did, oid)
			if err != nil {
				return err
			}
			if len(lines) == 0 {
				return checkFailed("order %d/%d/%d below d_next_o_id=%d has no lines", wh, did, oid, nextO)
			}
			for _, l := range lines {
				item, supply := l[4].(int64), l[5].(int64)
				if seen[item] {
					continue
				}
				seen[item] = true
				sRow, found, err := b.get(tpcc.TStock, supply, item)
				if err != nil {
					return err
				}
				if found && sRow[2].(int64) < threshold {
					low++
				}
			}
		}
		c.count["ror.low_stock"] += float64(low)
		return nil
	}
}

// --- checks and metrics ------------------------------------------------------

func (w *tpccWL) nextOrderSum(ctx context.Context) (int64, error) {
	sess, err := w.d.Connect("langzhong")
	if err != nil {
		return 0, err
	}
	tx, err := sess.Begin(ctx)
	if err != nil {
		return 0, err
	}
	defer tx.Abort(ctx)
	var sum int64
	for wh := int64(1); wh <= tpccWarehouses; wh++ {
		rows, err := tx.ScanPK(ctx, tpcc.TDistrict, []any{wh}, 0)
		if err != nil {
			return 0, err
		}
		for _, r := range rows {
			sum += r[5].(int64)
		}
	}
	return sum, nil
}

// check matches the growth of Σ d_next_o_id to the New-Orders the
// benchmark saw commit and, on tpcc-3city, runs tpcc.ConsistencyCheck.
// ror-3city checks every read instead; ConsistencyCheck reads each order's
// lines one round trip at a time, which over its writer's orders took
// 40-70 s a run.
func (w *tpccWL) check(ctx context.Context) error {
	for _, cn := range w.d.Cluster().CNs() {
		cn.Quiesce()
	}
	if !w.ror {
		if err := w.drv.ConsistencyCheck(ctx); err != nil {
			return err
		}
	}
	sum, err := w.nextOrderSum(ctx)
	if err != nil {
		return err
	}
	if grew, seen := sum-w.nextOSum, w.newOrders.Load(); grew != seen {
		return fmt.Errorf("Σ d_next_o_id grew by %d but %d New-Orders committed", grew, seen)
	}
	return nil
}

// hotKeys are the district and warehouse rows of the clients' homes, which
// every New-Order and Payment updates.
func (w *tpccWL) hotKeys() []hotKey {
	var out []hotKey
	wSch, err1 := w.d.Schema(tpcc.TWarehouse)
	dSch, err2 := w.d.Schema(tpcc.TDistrict)
	if err := errors.Join(err1, err2); err != nil {
		return nil
	}
	for _, wh := range w.homes {
		if k, err := wSch.PrimaryKeyFromValues([]any{wh}); err == nil {
			out = append(out, hotKey{w.whShard[wh], k})
		}
		for did := int64(1); did <= tpccDistricts; did++ {
			if k, err := dSch.PrimaryKeyFromValues([]any{wh, did}); err == nil {
				out = append(out, hotKey{w.whShard[wh], k})
			}
		}
	}
	return out
}

func (w *tpccWL) latencies(r *phaseResult) []namedMetric {
	// new_order_p50_ms and payment_p50_ms cover all New-Orders and
	// Payments; the remote classes are the ones that touch a remote
	// warehouse, which pay WAN round trips and, for New-Order, 2PC.
	no := r.class("new_order", "new_order_remote")
	if !w.ror {
		return []namedMetric{
			r.p50("lat1_ms", "new_order_p50_ms", no),
			r.p50("lat2_ms", "payment_p50_ms", r.class("payment", "payment_remote")),
			r.p50("lat3_ms", "remote_new_order_p50_ms", r.class("new_order_remote")),
			r.p50("lat4_ms", "remote_payment_p50_ms", r.class("payment_remote")),
		}
	}
	stale := r.extra["staleness"]
	if stale == nil {
		stale = &samples{}
	}
	return []namedMetric{
		r.p50("lat1_ms", "order_status_p50_ms", r.class("order_status")),
		r.p50("lat2_ms", "stock_level_p50_ms", r.class("stock_level")),
		r.p50("lat3_ms", "staleness_p50_ms", stale),
		r.p50("lat4_ms", "new_order_p50_ms", no),
	}
}

func walDir(base, workload string) string {
	return filepath.Join(base, fmt.Sprintf("wal-%s-%d-%d", workload, os.Getpid(), time.Now().UnixNano()))
}
