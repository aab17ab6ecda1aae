package gsql

import (
	"context"
	"fmt"
	"sort"

	"globaldb"
	"globaldb/gsql/fragment"
	"globaldb/internal/keys"
	"globaldb/internal/table"
)

// reader is the read surface shared by read-write transactions and
// read-only (replica) queries. Both globaldb.Tx and globaldb.Query
// implement it. Its scans stream pages on demand; the operator pipeline
// that SELECT, UPDATE and DELETE all run on is built over them.
type reader interface {
	Get(ctx context.Context, tableName string, pkVals []any) (globaldb.Row, bool, error)
	ScanPKRows(ctx context.Context, tableName string, pkPrefix []any, o globaldb.ScanOpts) (*globaldb.Rows, error)
	ScanIndexRows(ctx context.Context, tableName, indexName string, prefix []any, o globaldb.ScanOpts) (*globaldb.Rows, error)
	ScanTableRows(ctx context.Context, tableName string, o globaldb.ScanOpts) (*globaldb.Rows, error)
}

var (
	_ reader = (*globaldb.Tx)(nil)
	_ reader = (*globaldb.Query)(nil)
)

// runSelect executes a bound SELECT against a reader and returns its output
// as Rows. Plans with a pushed aggregation run DN-partial/CN-final: data
// nodes fold matching rows into per-group partial states and the CN merges
// them. Everything else runs through the operator pipeline (scan, with any
// pushed filter and projection evaluated on the data nodes -> join ->
// residual filter). An ungrouped stream whose order the scan already
// satisfies is returned still streaming: Rows.Next projects it and applies
// DISTINCT, OFFSET and LIMIT, and stops the scans once LIMIT is met.
// Aggregation and sorting are pipeline breakers: they run to completion
// here and the Rows iterates their result.
func runSelect(ctx context.Context, r reader, p *boundPlan) (*Rows, error) {
	if p.push != nil && p.push.agg && !p.noPushdown {
		totals := &scanTotals{}
		res, ok, err := execPushedAgg(ctx, r, p, totals)
		if err != nil {
			return nil, err
		}
		if ok {
			return &Rows{cols: res.Columns, mat: res.Rows, totals: totals}, nil
		}
	}
	it, orderDone, totals, err := buildPipeline(ctx, r, p)
	if err != nil {
		return nil, err
	}
	rows := &Rows{ctx: ctx, cols: p.outCols, totals: totals}
	if p.inner != nil {
		rows.join = p.chosenJoin.String()
	}
	if !p.grouped && (len(p.orderBy) == 0 || orderDone) {
		rows.bp, rows.it, rows.scr = p, it, p.newScratch()
		if p.distinct {
			rows.seen = make(map[string]bool)
		}
		return rows, nil
	}
	res, err := finishSelect(ctx, p, it)
	it.Close()
	if err != nil {
		return nil, err
	}
	rows.mat = res.Rows
	return rows, nil
}

// execPushedAgg runs a grouped SELECT with DN-partial aggregation: each
// shard ships one pre-merged partial state row per group, the coordinator
// merge combines equal groups across shards, and this function turns each
// merged row into a group row — a representative row rebuilt from the
// group key, then the finalized aggregate values — and hands them to the
// CN-final phase CN-side aggregation shares. The scan's counters
// accumulate into totals. ok=false means the fragment could not be bound
// for this execution and the caller should fall back to the CN-side path.
func execPushedAgg(ctx context.Context, r reader, p *boundPlan, totals *scanTotals) (res *Result, ok bool, err error) {
	pp := p.push
	bf, err := pp.frag.Bind(p.params)
	if err != nil {
		return nil, false, nil
	}
	it, err := openScan(ctx, r, p, p.outer, nil, 0, 0, 0, bf, totals)
	if err != nil {
		return nil, true, err
	}
	defer it.Close()

	ngroup := len(pp.groupCols)
	var groups []table.Row
	blk, err := it.NextBlock(ctx)
	for ; blk != nil; blk, err = it.NextBlock(ctx) {
		for _, row := range blk.tabs[0] {
			if len(row) != ngroup+len(p.aggs) {
				return nil, true, fmt.Errorf("gsql: partial aggregate row has %d values, want %d", len(row), ngroup+len(p.aggs))
			}
			gr := make(table.Row, p.width, p.width+len(p.aggs))
			for i, ci := range pp.groupCols {
				gr[ci] = row[i]
			}
			for i, a := range p.cn.aggs {
				st, isState := row[ngroup+i].(fragment.AggState)
				if !isState {
					return nil, true, fmt.Errorf("gsql: partial aggregate slot %d holds %T", i, row[ngroup+i])
				}
				gr = append(gr, st.Final(a.spec.Kind))
			}
			groups = append(groups, gr)
		}
	}
	if err != nil {
		return nil, true, err
	}
	// A global aggregate over zero rows still yields one output row, with
	// the same empty-state results as CN-side aggregation.
	if len(groups) == 0 && len(p.groupBy) == 0 {
		groups = append(groups, emptyGroupRow(p))
	}
	res, err = finishAggGroups(p, groups)
	return res, true, err
}

// finishSelect consumes a pipeline-breaking block stream — aggregation, or
// an ORDER BY the scan does not deliver — and produces the result:
// aggregation or projection, then ordering, DISTINCT, OFFSET and LIMIT.
// ORDER BY with a LIMIT keeps only a bounded top-N heap instead of
// draining and sorting the whole input.
func finishSelect(ctx context.Context, p *boundPlan, it blockIter) (*Result, error) {
	if p.grouped {
		return aggregateRows(ctx, p, it)
	}
	out := &Result{Columns: p.outCols}
	scr := p.newScratch()
	// ORDER BY: with a LIMIT (and no DISTINCT, which dedups after the
	// sort), keep only the top limit+offset rows in a bounded heap —
	// O(N log k) comparisons and O(k) memory instead of materializing and
	// fully sorting the input. Otherwise drain, then sort on
	// pre-projection keys. limit+offset >= 0 rejects sentinel-huge limits
	// whose sum overflows (MaxInt64 LIMITs are a common "no limit"
	// idiom); those take the drain path, which never sums them.
	if len(p.orderBy) > 0 && p.limit >= 0 && !p.distinct && p.limit+p.offset >= 0 {
		top := newTopN(p.orderBy, p.limit+p.offset)
		for {
			blk, err := it.NextBlock(ctx)
			if err != nil {
				return nil, err
			}
			if blk == nil {
				break
			}
			for i, n := 0, blk.n(); i < n; i++ {
				row := blk.row(i, scr)
				keys, admit, err := top.tryAdmitKeys(p.cn.order, row)
				if err != nil {
					return nil, err
				}
				if !admit {
					continue
				}
				outRow, err := evalRow(p.cn.outs, row)
				if err != nil {
					return nil, err
				}
				if err := top.add(outRow, keys); err != nil {
					return nil, err
				}
			}
		}
		rows, err := top.sorted()
		if err != nil {
			return nil, err
		}
		if p.offset > 0 {
			if int64(len(rows)) <= p.offset {
				rows = nil
			} else {
				rows = rows[p.offset:]
			}
		}
		out.Rows = rows
		return out, nil
	}
	var sortKeys [][]any
	for {
		blk, err := it.NextBlock(ctx)
		if err != nil {
			return nil, err
		}
		if blk == nil {
			break
		}
		for i, n := 0, blk.n(); i < n; i++ {
			row := blk.row(i, scr)
			outRow, err := evalRow(p.cn.outs, row)
			if err != nil {
				return nil, err
			}
			keys, err := evalRow(p.cn.order, row)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, outRow)
			sortKeys = append(sortKeys, keys)
		}
	}
	if err := sortAndLimit(p, out, sortKeys); err != nil {
		return nil, err
	}
	return out, nil
}

func findIndex(sch *table.Schema, name string) (table.Index, error) {
	for _, ix := range sch.Indexes {
		if ix.Name == name {
			return ix, nil
		}
	}
	return table.Index{}, fmt.Errorf("gsql: table %s has no index %q", sch.Name, name)
}

// coerceKey adapts evaluated key values to the column kinds at the given
// positions (int64 literals bind to DOUBLE columns, etc.).
func coerceKey(sch *table.Schema, cols []int, vals []any) ([]any, error) {
	out := make([]any, len(vals))
	for i, v := range vals {
		cv, err := coerceValue(sch, cols[i], v)
		if err != nil {
			return nil, err
		}
		out[i] = cv
	}
	return out, nil
}

// coerceValue converts v to the kind of the schema column, or fails.
func coerceValue(sch *table.Schema, col int, v any) (any, error) {
	if v == nil {
		return nil, nil
	}
	kind := sch.Columns[col].Kind
	switch kind {
	case table.Int64:
		if x, ok := v.(int64); ok {
			return x, nil
		}
		if f, ok := v.(float64); ok && f == float64(int64(f)) {
			return int64(f), nil
		}
	case table.Float64:
		if x, ok := v.(float64); ok {
			return x, nil
		}
		if x, ok := v.(int64); ok {
			return float64(x), nil
		}
	case table.String:
		if x, ok := v.(string); ok {
			return x, nil
		}
	case table.Bytes:
		if x, ok := v.([]byte); ok {
			return x, nil
		}
		if x, ok := v.(string); ok {
			return []byte(x), nil
		}
	case table.Bool:
		if x, ok := v.(bool); ok {
			return x, nil
		}
	}
	return nil, fmt.Errorf("%w: %T for %s column %s", ErrType, v, kind, sch.Columns[col].Name)
}

// ---- Aggregation ----

// aggregateRows groups the combined-row block stream and computes
// aggregate outputs — the CN-side aggregation path. Each group folds its
// rows into one fragment.AggState per aggregate, the same state data
// nodes fold partial aggregates into; DISTINCT aggregates first drop
// values already seen in the group. Aggregation is a pipeline breaker —
// it consumes the stream to the end — but still holds only per-group
// state, never the input rows (each group retains one copied
// representative row).
func aggregateRows(ctx context.Context, p *boundPlan, it blockIter) (*Result, error) {
	type group struct {
		rep    table.Row // representative combined row, with room for the aggregate slots
		states []fragment.AggState
		seen   []map[string]bool // values a DISTINCT aggregate has counted
	}
	groups := map[string]*group{}
	var order []*group

	scr := p.newScratch()
	var enc keys.Encoder
	keyVals := make([]any, len(p.cn.groupBy))
	arg := make([]any, 1)
	for {
		blk, err := it.NextBlock(ctx)
		if err != nil {
			return nil, err
		}
		if blk == nil {
			break
		}
		for i, n := 0, blk.n(); i < n; i++ {
			row := blk.row(i, scr)
			if err := evalInto(keyVals, p.cn.groupBy, row); err != nil {
				return nil, err
			}
			kb, err := distinctKey(&enc, keyVals)
			if err != nil {
				return nil, err
			}
			grp, ok := groups[string(kb)]
			if !ok {
				grp = &group{
					rep:    append(make(table.Row, 0, p.width+len(p.aggs)), row...),
					states: make([]fragment.AggState, len(p.aggs)),
					seen:   make([]map[string]bool, len(p.aggs)),
				}
				groups[string(kb)] = grp
				order = append(order, grp)
			}
			for ai, a := range p.cn.aggs {
				st := &grp.states[ai]
				if !a.distinct || a.spec.Star {
					if err := st.Accumulate(a.spec, row); err != nil {
						return nil, err
					}
					continue
				}
				v, err := fragment.Eval(a.spec.Arg, row)
				if err != nil {
					return nil, err
				}
				if v == nil {
					continue // SQL aggregates skip NULLs
				}
				arg[0] = v
				key, err := distinctKey(&enc, arg)
				if err != nil {
					return nil, err
				}
				if grp.seen[ai] == nil {
					grp.seen[ai] = make(map[string]bool)
				}
				if grp.seen[ai][string(key)] {
					continue
				}
				grp.seen[ai][string(key)] = true
				if err := st.Fold(a.spec.Kind, v); err != nil {
					return nil, err
				}
			}
		}
	}

	rows := make([]table.Row, len(order))
	for gi, grp := range order {
		gr := grp.rep
		for ai, a := range p.cn.aggs {
			gr = append(gr, grp.states[ai].Final(a.spec.Kind))
		}
		rows[gi] = gr
	}
	// A global aggregate over zero rows still yields one output row.
	if len(rows) == 0 && len(p.groupBy) == 0 {
		rows = append(rows, emptyGroupRow(p))
	}
	return finishAggGroups(p, rows)
}

// emptyGroupRow is the group row of a global aggregate over no rows: NULL
// columns, then each aggregate's result over an empty state.
func emptyGroupRow(p *boundPlan) table.Row {
	gr := make(table.Row, p.width, p.width+len(p.aggs))
	for _, a := range p.cn.aggs {
		gr = append(gr, fragment.AggState{}.Final(a.spec.Kind))
	}
	return gr
}

// finishAggGroups runs the CN-final phase over group rows: HAVING, the
// outputs and ORDER BY keys (aggregate calls read their slots), then
// sort/DISTINCT/OFFSET/LIMIT.
func finishAggGroups(p *boundPlan, groups []table.Row) (*Result, error) {
	out := &Result{Columns: p.outCols}
	var sortKeys [][]any
	for _, gr := range groups {
		if p.cn.having != nil {
			ok, err := fragment.EvalBool(p.cn.having, gr)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		outRow, err := evalRow(p.cn.outs, gr)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, outRow)
		if len(p.cn.order) > 0 {
			keys, err := evalRow(p.cn.order, gr)
			if err != nil {
				return nil, err
			}
			sortKeys = append(sortKeys, keys)
		}
	}
	if err := sortAndLimit(p, out, sortKeys); err != nil {
		return nil, err
	}
	return out, nil
}

// sortAndLimit orders result rows by the pre-computed sort keys (one key
// vector per row, evaluated on the pre-projection rows so ORDER BY may
// reference any column) and applies LIMIT.
func sortAndLimit(p *boundPlan, res *Result, sortKeys [][]any) error {
	if len(p.orderBy) > 0 && len(res.Rows) > 1 {
		idx := make([]int, len(res.Rows))
		for i := range idx {
			idx[i] = i
		}
		var sortErr error
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := sortKeys[idx[a]], sortKeys[idx[b]]
			for i, o := range p.orderBy {
				c, err := compareNullable(ka[i], kb[i])
				if err != nil && sortErr == nil {
					sortErr = err
				}
				if c == 0 {
					continue
				}
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		if sortErr != nil {
			return sortErr
		}
		sorted := make([][]any, len(res.Rows))
		for i, j := range idx {
			sorted[i] = res.Rows[j]
		}
		res.Rows = sorted
	}
	if p.distinct {
		seen := make(map[string]bool, len(res.Rows))
		var enc keys.Encoder
		kept := res.Rows[:0]
		for _, row := range res.Rows {
			key, err := distinctKey(&enc, row)
			if err != nil {
				return err
			}
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			kept = append(kept, row)
		}
		res.Rows = kept
	}
	if p.offset > 0 {
		if int64(len(res.Rows)) <= p.offset {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[p.offset:]
		}
	}
	if p.limit >= 0 && int64(len(res.Rows)) > p.limit {
		res.Rows = res.Rows[:p.limit]
	}
	return nil
}

// distinctKey encodes a DISTINCT row, GROUP BY tuple or COUNT(DISTINCT)
// argument into enc (reset first) with the memcomparable key encoding that
// primary keys, indexes and DN group keys use, so CN-side dedup shares
// their one definition of equality: -0 and +0 coincide, every NaN is one
// value, and the type-tagged, self-delimiting elements keep NULL, BIGINT
// and DOUBLE values, and tuple boundaries, apart. The key aliases enc's
// buffer until the next call.
func distinctKey(enc *keys.Encoder, vals []any) ([]byte, error) {
	enc.Reset()
	for _, v := range vals {
		if err := fragment.AppendKeyValue(enc, v); err != nil {
			return nil, err
		}
	}
	return enc.Bytes(), nil
}

// compareNullable orders values with NULLs first.
func compareNullable(a, b any) (int, error) {
	switch {
	case a == nil && b == nil:
		return 0, nil
	case a == nil:
		return -1, nil
	case b == nil:
		return 1, nil
	}
	return fragment.Compare(a, b)
}
