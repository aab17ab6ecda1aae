package gsql

import (
	"context"
	"errors"
	"fmt"

	"globaldb"
	"globaldb/internal/keys"
	"globaldb/internal/obs"
	"globaldb/internal/table"
)

// ErrNotSelect is returned by the Query entry points when the statement is
// not a SELECT. Callers that accept any statement (like the database/sql
// driver) match it and fall back to Exec.
var ErrNotSelect = errors.New("gsql: Query requires a SELECT statement")

// Rows is a SELECT's output, the one consumer of the operator pipeline:
// Query hands it to the caller, and Exec drains it into a Result. Rows
// wraps the volcano pipeline directly: each Next pulls combined rows from
// the scans (which fetch storage pages lazily) and projects them, so a
// consumer that stops early never ships the rest of the table. Pipeline
// breakers — GROUP BY, and ORDER BY the scan cannot satisfy — materialize
// their result up front and then iterate it; everything else streams end
// to end.
//
// A Rows must be Closed. Close also settles the autocommit read
// transaction that backs an out-of-transaction primary read, so dropping a
// Rows without closing leaks that transaction.
type Rows struct {
	ctx        context.Context
	cols       []string
	onReplicas bool
	join       string // physical join strategy; empty for one table

	// Streaming state: the batch-native pipeline below, with this Rows as
	// the thin row adapter at the consumer edge (each Next steps through
	// the current block; blocks are pulled on demand). Projection,
	// DISTINCT, OFFSET and LIMIT of streamed results happen here only.
	bp      *boundPlan
	it      blockIter
	blk     *rowBlock
	bi      int
	scr     table.Row       // rowBlock.row scratch for joins
	seen    map[string]bool // DISTINCT filter
	enc     keys.Encoder    // DISTINCT key scratch
	skipped int64
	yielded int64

	// Materialized result (grouped or sorted).
	mat [][]any
	mi  int

	// totals accumulates the scan counters as the pipeline's scans close;
	// a materialized result's are already final.
	totals *scanTotals

	row    []any
	err    error
	closed bool
	finish func(ok bool) error // settles the backing read context
	span   *obs.Span           // the execute span, ended by Close
}

// Columns names the output columns, available before the first Next.
func (r *Rows) Columns() []string { return r.cols }

// OnReplicas reports whether the query was served from asynchronous
// replicas at the RCP rather than shard primaries.
func (r *Rows) OnReplicas() bool { return r.onReplicas }

// JoinStrategy names the physical join strategy a two-table query runs
// with ("lookup-pushdown", "hash", "nested-loop"), the same name
// Result.JoinStrategy carries; empty for single-table queries.
func (r *Rows) JoinStrategy() string { return r.join }

// ScanStats reports the query's per-layer scan row counts — the counters
// Result.Scan carries. On a streaming query the counters settle as the
// pipeline's scans close, so they are final only after the Rows is drained
// or Closed; before that they report the scans that have already finished.
func (r *Rows) ScanStats() globaldb.ScanStats { return r.totals.s }

// Next advances to the following output row, returning false at the end of
// the result or on error (check Err afterwards).
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if r.it == nil { // materialized result
		if r.mi >= len(r.mat) {
			return false
		}
		r.row = r.mat[r.mi]
		r.mi++
		return true
	}
	for r.bp.limit < 0 || r.yielded < r.bp.limit {
		if r.blk == nil || r.bi >= r.blk.n() {
			blk, err := r.it.NextBlock(r.ctx)
			if err != nil {
				r.err = err
				return false
			}
			if blk == nil {
				break
			}
			r.blk, r.bi = blk, 0
		}
		row := r.blk.row(r.bi, r.scr)
		r.bi++
		out, err := evalRow(r.bp.cn.outs, row)
		if err != nil {
			r.err = err
			return false
		}
		if r.seen != nil {
			key, err := distinctKey(&r.enc, out)
			if err != nil {
				r.err = err
				return false
			}
			if r.seen[string(key)] {
				continue
			}
			r.seen[string(key)] = true
		}
		if r.skipped < r.bp.offset {
			r.skipped++
			continue
		}
		r.yielded++
		r.row = out
		return true
	}
	return false
}

// Row returns the current output row. It is valid after a Next that
// returned true and until the following Next call.
func (r *Rows) Row() []any { return r.row }

// Err returns the first error encountered while streaming, or nil.
func (r *Rows) Err() error { return r.err }

// Close stops the pipeline, releasing scan cursors and settling the
// backing read transaction. Idempotent.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.it != nil {
		r.it.Close()
	}
	var err error
	if r.finish != nil {
		err = r.finish(r.err == nil)
	}
	if r.join != "" {
		r.span.Tag("join=%s", r.join)
	}
	r.span.End()
	return err
}

// result drains the Rows into a Result and closes it.
func (r *Rows) result() (*Result, error) {
	res := &Result{Columns: r.cols, OnReplicas: r.onReplicas, JoinStrategy: r.join}
	if r.it == nil { // hand a materialized result over without copying
		res.Rows, r.mi = r.mat, len(r.mat)
	}
	for r.Next() {
		res.Rows = append(res.Rows, r.row)
	}
	err := r.Close()
	if r.err != nil {
		err = r.err
	}
	if err != nil {
		return nil, err
	}
	res.Scan = r.totals.s
	return res, nil
}

// Query runs a SELECT and streams its output rows, binding args to the
// statement's placeholders. It shares Exec's plan cache. The returned Rows
// must be closed.
func (s *Session) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	cs, err := s.cachedStatement(sql)
	if err != nil {
		return nil, err
	}
	return s.query(ctx, cs, args)
}

// query binds args to a parsed and planned SELECT and opens its Rows; the
// body of Session.Query and Stmt.Query.
func (s *Session) query(ctx context.Context, cs *preparedStatement, args []any) (*Rows, error) {
	sel, ok := cs.stmt.(*Select)
	if !ok {
		return nil, fmt.Errorf("%w, have %T", ErrNotSelect, cs.stmt)
	}
	params, err := bindArgs(cs.numParams, args)
	if err != nil {
		return nil, err
	}
	return s.openSelect(ctx, sel, cs.plan, params)
}

// openSelect is the one way a SELECT executes, shared by Exec, Query and
// their prepared forms: plan (unless a cached plan is supplied), bind with
// the session's pushdown, join-strategy and row-estimate settings, open
// the read context, and run. Inside an explicit transaction the query
// reads from shard primaries at the transaction snapshot (and sees its own
// writes). Outside a transaction it reads primaries at a fresh snapshot by
// default; SET STALENESS or a per-statement AS OF STALENESS routes it to
// asynchronous replicas at the RCP (read-on-replica). The plan, bind and
// execute spans cover it; the execute span ends when the Rows closes.
func (s *Session) openSelect(ctx context.Context, sel *Select, plan *selectPlan, params []any) (*Rows, error) {
	// root is nil when tracing is off; every span call below is then a
	// no-op pointer compare, keeping the hot path allocation-free.
	root := s.curTrace.Root()
	planSp := root.Child("plan")
	if plan == nil {
		var err error
		if plan, err = planSelect(s, sel); err != nil {
			return nil, err
		}
	} else {
		planSp.Tag("cached")
	}
	planSp.End()
	bindSp := root.Child("bind")
	bp, err := plan.bind(params)
	bindSp.End()
	if err != nil {
		return nil, err
	}
	bp.noPushdown = s.pushdownOff
	bp.joinMode = s.joinMode
	bp.rowEst = s.db.RowEstimate
	execSp := root.Child("execute")
	// The span rides the context into the scan cursors' prefetch
	// goroutines (per-shard scan-page spans) and the autocommit
	// transaction's commit fan-out.
	ctx = obs.WithSpan(ctx, execSp)
	r, onReplicas, finish, err := s.openReadContext(ctx, sel)
	if err != nil {
		execSp.End()
		return nil, err
	}
	rows, err := runSelect(ctx, r, bp)
	if err != nil {
		_ = finish(false) // the query already failed; err is what the caller reports
		execSp.End()
		return nil, err
	}
	rows.onReplicas, rows.finish, rows.span = onReplicas, finish, execSp
	return rows, nil
}
