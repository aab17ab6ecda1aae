package gsql

import (
	"fmt"

	"globaldb/gsql/fragment"
)

// This file is the one translation from gsql's parsed expressions to
// fragment.Expr, the form both halves of the CN/DN execution split
// evaluate. Every expression a plan evaluates is compiled once, at plan
// time, over a flat row layout; the computing node then runs
// fragment.Eval over its rows exactly as data nodes do over theirs.

// ErrType is returned when an expression combines incompatible values. It
// aliases the fragment evaluator's sentinel: both sides of the CN/DN
// execution split wrap the same error.
var ErrType = fragment.ErrType

// scope places the columns of a plan's FROM tables in a flat row: table
// t's columns start at offs[t], and a negative offset puts the table out
// of scope. aggs maps an aggregate call's text to the row position of its
// slot in group rows; with aggs nil no aggregate is in scope. params
// records whether anything compiled in the scope read a statement
// parameter.
type scope struct {
	tables []*boundTable
	offs   []int
	aggs   map[string]int
	params bool
}

// compileExpr is gsql's expression compiler. It translates a parsed
// expression into a fragment.Expr over the scope's row layout, resolving
// every column reference once. The computing node evaluates the result
// with fragment.Eval, and the pushdown analysis ships the conjuncts that
// compile with only the outer table in scope to data nodes, which run the
// same Eval. Placeholders stay OpParam nodes, bound per execution. It
// fails on unknown or ambiguous columns, columns of tables out of scope,
// '*' outside COUNT(*), aggregates outside the outputs of a grouped plan,
// and functions called with the wrong number of arguments. A nil e
// compiles to nil.
func compileExpr(e Expr, sc *scope) (*fragment.Expr, error) {
	if e == nil {
		return nil, nil
	}
	fe, err := sc.compile(e)
	if err != nil {
		return nil, err
	}
	return &fe, nil
}

// compileExprs compiles each expression of es.
func compileExprs(es []Expr, sc *scope) ([]fragment.Expr, error) {
	out := make([]fragment.Expr, len(es))
	for i, e := range es {
		var err error
		if out[i], err = sc.compile(e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (sc *scope) compile(e Expr) (fragment.Expr, error) {
	switch x := e.(type) {
	case *Literal:
		switch x.Val.(type) {
		case nil, int64, float64, string, []byte, bool:
			return fragment.Expr{Op: fragment.OpConst, Val: x.Val}, nil
		}
		return fragment.Expr{}, fmt.Errorf("%w: literal of type %T", ErrType, x.Val)
	case *Placeholder:
		sc.params = true
		return fragment.Expr{Op: fragment.OpParam, Col: x.Idx}, nil
	case *ColRef:
		ti, ci, err := resolveCol(x, sc.tables)
		if err != nil {
			return fragment.Expr{}, err
		}
		if sc.offs[ti] < 0 {
			return fragment.Expr{}, fmt.Errorf("gsql: column %s is not available here", x)
		}
		return fragment.Expr{Op: fragment.OpCol, Col: sc.offs[ti] + ci}, nil
	case *Star:
		return fragment.Expr{}, fmt.Errorf("gsql: '*' is only valid in SELECT lists and COUNT(*)")
	case *UnaryExpr:
		switch x.Op {
		case "NOT":
			return sc.node(fragment.OpNot, x.X)
		case "-":
			return sc.node(fragment.OpNeg, x.X)
		}
		return fragment.Expr{}, fmt.Errorf("gsql: unknown unary operator %q", x.Op)
	case *BinaryExpr:
		op, ok := binaryOps[x.Op]
		if !ok {
			return fragment.Expr{}, fmt.Errorf("gsql: unknown operator %q", x.Op)
		}
		return sc.node(op, x.Left, x.Right)
	case *IsNullExpr:
		if x.Neg {
			return sc.node(fragment.OpNotNull, x.X)
		}
		return sc.node(fragment.OpIsNull, x.X)
	case *InExpr:
		op := fragment.OpIn
		if x.Neg {
			op = fragment.OpNotIn
		}
		return sc.node(op, append([]Expr{x.X}, x.List...)...)
	case *BetweenExpr:
		op := fragment.OpBetween
		if x.Neg {
			op = fragment.OpNotBetween
		}
		return sc.node(op, x.X, x.Lo, x.Hi)
	case *FuncExpr:
		if aggregateFuncs[x.Name] {
			if slot, ok := sc.aggs[x.String()]; ok {
				return fragment.Expr{Op: fragment.OpCol, Col: slot}, nil
			}
			return fragment.Expr{}, fmt.Errorf("gsql: aggregate %s in a scalar context", x.Name)
		}
		op, ok := scalarOps[x.Name]
		if !ok {
			return fragment.Expr{}, fmt.Errorf("gsql: unknown function %q", x.Name)
		}
		if op == fragment.OpCoalesce {
			if len(x.Args) == 0 {
				return fragment.Expr{}, fmt.Errorf("gsql: COALESCE takes at least one argument")
			}
		} else if len(x.Args) != 1 {
			return fragment.Expr{}, fmt.Errorf("gsql: %s takes one argument", x.Name)
		}
		return sc.node(op, x.Args...)
	}
	return fragment.Expr{}, fmt.Errorf("gsql: cannot compile %T", e)
}

// node compiles an operator node over the given operands.
func (sc *scope) node(op fragment.Op, args ...Expr) (fragment.Expr, error) {
	out, err := compileExprs(args, sc)
	if err != nil {
		return fragment.Expr{}, err
	}
	return fragment.Expr{Op: op, Args: out}, nil
}

var binaryOps = map[string]fragment.Op{
	"=": fragment.OpEq, "<>": fragment.OpNe,
	"<": fragment.OpLt, "<=": fragment.OpLe,
	">": fragment.OpGt, ">=": fragment.OpGe,
	"AND": fragment.OpAnd, "OR": fragment.OpOr,
	"+": fragment.OpAdd, "-": fragment.OpSub, "*": fragment.OpMul,
	"/": fragment.OpDiv, "%": fragment.OpMod,
	"LIKE": fragment.OpLike,
}

var scalarOps = map[string]fragment.Op{
	"ABS": fragment.OpAbs, "LOWER": fragment.OpLower, "UPPER": fragment.OpUpper,
	"LENGTH": fragment.OpLength, "COALESCE": fragment.OpCoalesce,
}

var aggKinds = map[string]fragment.AggKind{
	"COUNT": fragment.AggCount, "SUM": fragment.AggSum, "AVG": fragment.AggAvg,
	"MIN": fragment.AggMin, "MAX": fragment.AggMax,
}

// cnAgg is one aggregate the computing node folds into a
// fragment.AggState: the partial-aggregate spec over combined rows, and
// whether only distinct argument values count.
type cnAgg struct {
	spec     fragment.AggSpec
	distinct bool
}

// compileAgg compiles one aggregate call's argument over sc.
func compileAgg(fn *FuncExpr, sc *scope) (cnAgg, error) {
	a := cnAgg{spec: fragment.AggSpec{Kind: aggKinds[fn.Name]}, distinct: fn.Distinct}
	if len(fn.Args) != 1 {
		return cnAgg{}, fmt.Errorf("gsql: %s takes one argument", fn.Name)
	}
	if _, isStar := fn.Args[0].(*Star); isStar {
		if fn.Name != "COUNT" {
			return cnAgg{}, fmt.Errorf("gsql: %s(*) is not valid", fn.Name)
		}
		a.spec.Star = true
		return a, nil
	}
	if inner := collectAggs(fn.Args[0]); len(inner) > 0 {
		return cnAgg{}, fmt.Errorf("gsql: aggregate %s nested in aggregate %s", inner[0].Name, fn.Name)
	}
	arg, err := compileExpr(fn.Args[0], sc)
	if err != nil {
		return cnAgg{}, err
	}
	a.spec.Arg = arg
	return a, nil
}

// cnExprs are the expressions a plan evaluates on the computing node above
// its scans and residual filter. groupBy and the aggregate arguments read
// combined rows: the outer table's columns, then the inner table's. outs,
// order and having read combined rows too, or, when the plan aggregates,
// group rows: a representative combined row followed by one slot per
// aggregate.
type cnExprs struct {
	outs    []fragment.Expr
	order   []fragment.Expr
	having  *fragment.Expr
	groupBy []fragment.Expr
	aggs    []cnAgg
	// params records whether any of them reads a statement parameter,
	// which bind must substitute per execution.
	params bool
}

// bind returns the expressions with one execution's parameter values
// substituted. Parameter-free subtrees are shared with the template, and
// expressions without parameters return c itself.
func (c *cnExprs) bind(params []any) (*cnExprs, error) {
	if !c.params {
		return c, nil
	}
	b := *c
	var err error
	one := func(e *fragment.Expr) *fragment.Expr {
		if err == nil {
			e, err = fragment.BindExpr(e, params)
		}
		return e
	}
	many := func(es []fragment.Expr) []fragment.Expr {
		if err == nil {
			es, err = fragment.BindExprs(es, params)
		}
		return es
	}
	b.having = one(c.having)
	b.outs, b.order, b.groupBy = many(c.outs), many(c.order), many(c.groupBy)
	b.aggs = make([]cnAgg, len(c.aggs))
	for i, a := range c.aggs {
		a.spec.Arg = one(a.spec.Arg)
		b.aggs[i] = a
	}
	return &b, err
}

// evalRow evaluates es over row into a new slice.
func evalRow(es []fragment.Expr, row []any) ([]any, error) {
	out := make([]any, len(es))
	if err := evalInto(out, es, row); err != nil {
		return nil, err
	}
	return out, nil
}

// evalInto evaluates es over row into dst, which has len(es).
func evalInto(dst []any, es []fragment.Expr, row []any) error {
	for i := range es {
		v, err := fragment.Eval(&es[i], row)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// evalConst evaluates an expression that may reference statement
// parameters but no columns: INSERT values, LIMIT and OFFSET.
func evalConst(e Expr, params []any) (any, error) {
	fe, err := compileExpr(e, &scope{})
	if err != nil {
		return nil, err
	}
	if fe, err = fragment.BindExpr(fe, params); err != nil {
		return nil, err
	}
	return fragment.Eval(fe, nil)
}
