package gsql

import (
	"context"
	"fmt"

	"globaldb"
	"globaldb/internal/table"
)

// This file holds the differential-testing oracle: a drain-everything
// executor that materializes every scan through the globaldb drain
// wrappers and evaluates the whole WHERE clause on the computing node,
// with no pushdown, no streaming and no early termination. The operator
// pipeline that SELECT, UPDATE and DELETE run on must agree with it.

// drainReader is the oracle's read surface: the product reader plus the
// materializing scans of globaldb.Tx and globaldb.Query.
type drainReader interface {
	reader
	ScanPK(ctx context.Context, tableName string, pkPrefix []any, limit int) ([]globaldb.Row, error)
	ScanIndex(ctx context.Context, tableName, indexName string, prefix []any, limit int) ([]globaldb.Row, error)
	ScanTable(ctx context.Context, tableName string, limit int) ([]globaldb.Row, error)
}

var (
	_ drainReader = (*globaldb.Tx)(nil)
	_ drainReader = (*globaldb.Query)(nil)
)

// execSelect runs a bound SELECT on the product path and drains it.
func execSelect(ctx context.Context, r reader, p *boundPlan) (*Result, error) {
	rows, err := runSelect(ctx, r, p)
	if err != nil {
		return nil, err
	}
	return rows.result()
}

// execSelectMaterialized is the oracle: every scan materializes before the
// next stage runs, then aggregation or projection, sorting, DISTINCT,
// OFFSET and LIMIT run over the whole combined row set.
func execSelectMaterialized(ctx context.Context, r drainReader, p *boundPlan) (*Result, error) {
	rows, err := joinRows(ctx, r, p)
	if err != nil {
		return nil, err
	}
	blk := &sliceBlocks{done: len(rows) == 0}
	blk.blk.tabs = make([][]table.Row, len(p.tables))
	for t := range p.tables {
		for _, cr := range rows {
			blk.blk.tabs[t] = append(blk.blk.tabs[t], cr[t])
		}
	}
	return finishSelect(ctx, p, blk)
}

// joinRows produces the combined (outer[, inner]) rows passing the filter,
// materializing every scan before the next stage runs.
func joinRows(ctx context.Context, r drainReader, p *boundPlan) ([][]table.Row, error) {
	// A limit can be pushed into the outer scan only when nothing after it
	// can drop or reorder rows.
	pushLimit := 0
	if p.limit >= 0 && p.filter == nil && p.inner == nil && !p.grouped &&
		len(p.orderBy) == 0 && !p.distinct && p.offset == 0 {
		pushLimit = int(p.limit)
	}
	outerRows, err := scanOne(ctx, r, p, p.outer, nil, pushLimit)
	if err != nil {
		return nil, err
	}
	var combined [][]table.Row
	for _, orow := range outerRows {
		if p.inner == nil {
			cr := []table.Row{orow}
			ok, err := passes(p.filter, p.tables, cr, p.params)
			if err != nil {
				return nil, err
			}
			if ok {
				combined = append(combined, cr)
			}
			continue
		}
		innerRows, err := scanOne(ctx, r, p, p.inner, orow, 0)
		if err != nil {
			return nil, err
		}
		for _, irow := range innerRows {
			cr := []table.Row{orow, irow}
			ok, err := passes(p.filter, p.tables, cr, p.params)
			if err != nil {
				return nil, err
			}
			if ok {
				combined = append(combined, cr)
			}
		}
	}
	return combined, nil
}

func passes(filter Expr, tables []*boundTable, rows []table.Row, params []any) (bool, error) {
	if filter == nil {
		return true, nil
	}
	v, err := evalExpr(filter, &rowEnv{tables: tables, rows: rows, params: params})
	if err != nil {
		return false, err
	}
	return truthy(v)
}

// scanOne executes one table scan. outerRow, when non-nil, binds outer
// column references in the scan's key expressions (join inner lookups).
func scanOne(ctx context.Context, r drainReader, p *boundPlan, s *tableScan, outerRow table.Row, limit int) ([]table.Row, error) {
	env := &rowEnv{tables: p.tables, params: p.params}
	if outerRow != nil {
		env.rows = []table.Row{outerRow}
	}
	keyVals := make([]any, len(s.keyExprs))
	for i, e := range s.keyExprs {
		v, err := evalExpr(e, env)
		if err != nil {
			return nil, err
		}
		keyVals[i] = v
	}
	name := s.tab.schema.Name
	switch s.kind {
	case accessPoint:
		keyVals, err := coerceKey(s.tab.schema, s.tab.schema.PK, keyVals)
		if err != nil {
			return nil, err
		}
		row, found, err := r.Get(ctx, name, keyVals)
		if err != nil || !found {
			return nil, err
		}
		return []table.Row{row}, nil
	case accessPKPrefix:
		keyVals, err := coerceKey(s.tab.schema, s.tab.schema.PK[:len(keyVals)], keyVals)
		if err != nil {
			return nil, err
		}
		return r.ScanPK(ctx, name, keyVals, limit)
	case accessIndex:
		ix, err := findIndex(s.tab.schema, s.index)
		if err != nil {
			return nil, err
		}
		keyVals, err := coerceKey(s.tab.schema, ix.Cols[:len(keyVals)], keyVals)
		if err != nil {
			return nil, err
		}
		return r.ScanIndex(ctx, name, s.index, keyVals, limit)
	case accessFull:
		return r.ScanTable(ctx, name, limit)
	default:
		return nil, fmt.Errorf("gsql: unknown access kind %v", s.kind)
	}
}
