package gsql

import (
	"context"
	"fmt"
	"math"
	"strings"

	"globaldb"
	"globaldb/gsql/fragment"
	"globaldb/internal/table"
)

// This file holds the differential-testing oracle: a drain-everything
// executor that materializes every scan through the globaldb drain
// wrappers and evaluates the whole WHERE clause and every scan key on the
// computing node, with no pushdown, no streaming and no early
// termination. The operator pipeline that SELECT, UPDATE and DELETE run
// on must agree with it. The oracle evaluates expressions with its own
// row-at-a-time AST interpreter (evalExpr below), independent of the
// compiled fragment.Expr path the product runs.

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
	v, err := evalExpr(filter, &oracleEnv{tables: tables, rows: rows, params: params})
	if err != nil {
		return false, err
	}
	return truthy(v)
}

// scanOne executes one table scan. outerRow, when non-nil, binds outer
// column references in the scan's key expressions (join inner lookups).
func scanOne(ctx context.Context, r drainReader, p *boundPlan, s *tableScan, outerRow table.Row, limit int) ([]table.Row, error) {
	env := &oracleEnv{tables: p.tables, params: p.params}
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

// truthy interprets a value as a SQL condition; NULL is false.
func truthy(v any) (bool, error) {
	switch x := v.(type) {
	case nil:
		return false, nil
	case bool:
		return x, nil
	default:
		return false, fmt.Errorf("%w: %T used as a condition", ErrType, v)
	}
}

// oracleEnv is the interpreter's environment: one combined row (one row
// per FROM table; the inner row is nil while evaluating inner lookup
// keys) plus the statement's bound parameter values. It resolves column
// references by name on every evaluation.
type oracleEnv struct {
	tables []*boundTable
	rows   []table.Row
	params []any
}

func (e *oracleEnv) colValue(ref *ColRef) (any, error) {
	ti, ci, err := resolveCol(ref, e.tables)
	if err != nil {
		return nil, err
	}
	if ti >= len(e.rows) || e.rows[ti] == nil {
		return nil, fmt.Errorf("gsql: column %s references a row that is not bound yet", ref)
	}
	return e.rows[ti][ci], nil
}

func (e *oracleEnv) paramValue(idx int) (any, error) {
	if idx < 1 || idx > len(e.params) {
		return nil, fmt.Errorf("gsql: statement references parameter $%d but %d were bound", idx, len(e.params))
	}
	return e.params[idx-1], nil
}

// evalExpr evaluates a scalar expression against an environment. Aggregate
// calls must have been rewritten away by the planner before this runs.
func evalExpr(e Expr, env *oracleEnv) (any, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *ColRef:
		return env.colValue(x)
	case *Placeholder:
		return env.paramValue(x.Idx)
	case *Star:
		return nil, fmt.Errorf("gsql: '*' is only valid in SELECT lists and COUNT(*)")
	case *UnaryExpr:
		v, err := evalExpr(x.X, env)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			if v == nil {
				return nil, nil
			}
			b, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("%w: NOT %T", ErrType, v)
			}
			return !b, nil
		case "-":
			switch n := v.(type) {
			case nil:
				return nil, nil
			case int64:
				return -n, nil
			case float64:
				return -n, nil
			}
			return nil, fmt.Errorf("%w: -%T", ErrType, v)
		}
		return nil, fmt.Errorf("gsql: unknown unary operator %q", x.Op)
	case *BinaryExpr:
		return evalBinary(x, env)
	case *IsNullExpr:
		v, err := evalExpr(x.X, env)
		if err != nil {
			return nil, err
		}
		return (v == nil) != x.Neg, nil
	case *InExpr:
		v, err := evalExpr(x.X, env)
		if err != nil {
			return nil, err
		}
		if v == nil {
			return nil, nil
		}
		for _, item := range x.List {
			iv, err := evalExpr(item, env)
			if err != nil {
				return nil, err
			}
			if iv == nil {
				continue
			}
			c, err := fragment.Compare(v, iv)
			if err != nil {
				return nil, err
			}
			if c == 0 {
				return !x.Neg, nil
			}
		}
		return x.Neg, nil
	case *BetweenExpr:
		v, err := evalExpr(x.X, env)
		if err != nil {
			return nil, err
		}
		lo, err := evalExpr(x.Lo, env)
		if err != nil {
			return nil, err
		}
		hi, err := evalExpr(x.Hi, env)
		if err != nil {
			return nil, err
		}
		if v == nil || lo == nil || hi == nil {
			return nil, nil
		}
		cl, err := fragment.Compare(v, lo)
		if err != nil {
			return nil, err
		}
		ch, err := fragment.Compare(v, hi)
		if err != nil {
			return nil, err
		}
		return (cl >= 0 && ch <= 0) != x.Neg, nil
	case *FuncExpr:
		if aggregateFuncs[x.Name] {
			return nil, fmt.Errorf("gsql: aggregate %s in a scalar context", x.Name)
		}
		return evalScalarFunc(x, env)
	default:
		return nil, fmt.Errorf("gsql: cannot evaluate %T", e)
	}
}

func evalBinary(x *BinaryExpr, env *oracleEnv) (any, error) {
	switch x.Op {
	case "AND":
		lv, err := evalExpr(x.Left, env)
		if err != nil {
			return nil, err
		}
		if lb, ok := lv.(bool); ok && !lb {
			return false, nil // short circuit
		}
		rv, err := evalExpr(x.Right, env)
		if err != nil {
			return nil, err
		}
		if rb, ok := rv.(bool); ok && !rb {
			return false, nil
		}
		if lv == nil || rv == nil {
			return nil, nil
		}
		lb, lok := lv.(bool)
		rb, rok := rv.(bool)
		if !lok || !rok {
			return nil, fmt.Errorf("%w: %T AND %T", ErrType, lv, rv)
		}
		return lb && rb, nil
	case "OR":
		lv, err := evalExpr(x.Left, env)
		if err != nil {
			return nil, err
		}
		if lb, ok := lv.(bool); ok && lb {
			return true, nil
		}
		rv, err := evalExpr(x.Right, env)
		if err != nil {
			return nil, err
		}
		if rb, ok := rv.(bool); ok && rb {
			return true, nil
		}
		if lv == nil || rv == nil {
			return nil, nil
		}
		lb, lok := lv.(bool)
		rb, rok := rv.(bool)
		if !lok || !rok {
			return nil, fmt.Errorf("%w: %T OR %T", ErrType, lv, rv)
		}
		return lb || rb, nil
	}
	lv, err := evalExpr(x.Left, env)
	if err != nil {
		return nil, err
	}
	rv, err := evalExpr(x.Right, env)
	if err != nil {
		return nil, err
	}
	if lv == nil || rv == nil {
		return nil, nil // SQL three-valued logic: NULL propagates
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		c, err := fragment.Compare(lv, rv)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "=":
			return c == 0, nil
		case "<>":
			return c != 0, nil
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		case ">=":
			return c >= 0, nil
		}
	case "LIKE":
		s, sok := lv.(string)
		pat, pok := rv.(string)
		if !sok || !pok {
			return nil, fmt.Errorf("%w: %T LIKE %T", ErrType, lv, rv)
		}
		return fragment.LikeMatch(s, pat)
	case "+", "-", "*", "/", "%":
		return fragment.Arith(x.Op, lv, rv)
	}
	return nil, fmt.Errorf("gsql: unknown operator %q", x.Op)
}

func evalScalarFunc(f *FuncExpr, env *oracleEnv) (any, error) {
	if f.Name == "COALESCE" {
		for _, a := range f.Args {
			v, err := evalExpr(a, env)
			if err != nil {
				return nil, err
			}
			if v != nil {
				return v, nil
			}
		}
		return nil, nil
	}
	if len(f.Args) != 1 {
		return nil, fmt.Errorf("gsql: %s takes one argument", f.Name)
	}
	v, err := evalExpr(f.Args[0], env)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, nil
	}
	switch f.Name {
	case "ABS":
		switch n := v.(type) {
		case int64:
			if n < 0 {
				return -n, nil
			}
			return n, nil
		case float64:
			return math.Abs(n), nil
		}
		return nil, fmt.Errorf("%w: ABS(%T)", ErrType, v)
	case "LOWER":
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("%w: LOWER(%T)", ErrType, v)
		}
		return strings.ToLower(s), nil
	case "UPPER":
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("%w: UPPER(%T)", ErrType, v)
		}
		return strings.ToUpper(s), nil
	case "LENGTH":
		switch s := v.(type) {
		case string:
			return int64(len(s)), nil
		case []byte:
			return int64(len(s)), nil
		}
		return nil, fmt.Errorf("%w: LENGTH(%T)", ErrType, v)
	}
	return nil, fmt.Errorf("gsql: unknown function %q", f.Name)
}
