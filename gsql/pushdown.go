package gsql

import (
	"strings"

	"globaldb/gsql/fragment"
	"globaldb/internal/table"
)

// This file is the planner half of GlobalDB's distributed execution split.
// planSelect calls analyzePushdown after choosing access paths; it rewrites
// one logical plan into a DN-partial phase (a serializable
// fragment.Fragment of filters, projections and partial aggregates that
// data nodes evaluate inside the paged scan RPC) and a CN-final phase (the
// residual filter, partial-state merge, HAVING, ORDER BY, DISTINCT,
// LIMIT/OFFSET). Both phases evaluate the same compiled fragment.Expr
// trees with the same evaluator (compile.go), so the split decides only
// where an expression runs. Anything it cannot prove pushable stays on the
// computing node, so the rewrite only ever narrows what crosses the WAN,
// never what the query means.

// pushPlan records a SELECT's DN-partial phase.
type pushPlan struct {
	// frag is the fragment template; placeholders remain as OpParam nodes
	// and are bound per execution, so cached plans push down too.
	frag *fragment.Fragment
	// cnFilter is the residual filter evaluated on the CN when the
	// fragment is attached (the pushed conjuncts removed), compiled over
	// combined rows; nil when the whole filter pushed down.
	cnFilter *fragment.Expr
	// agg marks a DN-partial aggregation (CN merges states per group).
	agg bool
	// groupCols are the outer-schema positions of the GROUP BY columns
	// (agg only), used to rebuild representative rows from group keys.
	groupCols []int

	// describe-only fields (EXPLAIN).
	pushedExprs []Expr
	residual    Expr
	projected   []string
}

// analyzePushdown decides what part of the plan can run on data nodes.
// Pushdown applies to the outer scan of PK-prefix and full-table access
// paths: point gets ship one row anyway, and index scans stream index
// entries (key + PK), which a data node cannot filter as rows.
func analyzePushdown(p *selectPlan) *pushPlan {
	s := p.outer
	if s.kind != accessFull && s.kind != accessPKPrefix {
		return nil
	}
	sch := s.tab.schema
	kinds := make([]table.Kind, len(sch.Columns))
	for i, c := range sch.Columns {
		kinds[i] = c.Kind
	}

	pushed, pushedSrc, residual := splitPushable(p, conjuncts(p.filter))
	cnFilter, err := compileExpr(residual, p.rowScope())
	if err != nil {
		return nil
	}
	pp := &pushPlan{
		frag:        &fragment.Fragment{Kinds: kinds, Filter: andAll(pushed)},
		cnFilter:    cnFilter,
		pushedExprs: pushedSrc,
		residual:    residual,
	}

	if aggPush := analyzeAggPushdown(p, pp); aggPush {
		return pp
	}

	// Row pushdown: a pushed filter and/or a projection must actually save
	// something, or the fragment is pure overhead.
	proj := projectionFor(p, pp.cnFilter)
	if proj != nil {
		pp.frag.Project = proj
		for _, c := range proj {
			pp.projected = append(pp.projected, sch.Columns[c].Name)
		}
	}
	if pp.frag.Filter == nil && pp.frag.Project == nil {
		return nil
	}
	return pp
}

// splitPushable splits conjuncts into those that compile against the
// outer table alone — they run on the data nodes — and the residual the
// CN still evaluates, folded back into one expression.
func splitPushable(p *selectPlan, conjs []Expr) (pushed []*fragment.Expr, pushedSrc []Expr, residual Expr) {
	outer := keyScope(p.tables, p.tables[0])
	var rest []Expr
	for _, c := range conjs {
		if fe, err := compileExpr(c, outer); err == nil {
			pushed = append(pushed, fe)
			pushedSrc = append(pushedSrc, c)
		} else {
			rest = append(rest, c)
		}
	}
	return pushed, pushedSrc, andAll2(rest)
}

// analyzeAggPushdown upgrades the fragment to DN-partial aggregation when
// the whole plan qualifies: single table, fully pushed filter, plain
// column GROUP BY, and only mergeable aggregates. DN group keys and CN-side
// grouping share one key encoding, so float group columns group the same
// way on either side.
func analyzeAggPushdown(p *selectPlan, pp *pushPlan) bool {
	if !p.grouped || p.inner != nil || pp.cnFilter != nil {
		return false
	}
	// A single table's combined rows are its stored rows, so the CN's
	// compiled GROUP BY keys and aggregate specs are the DN's too.
	groupCols := make([]int, len(p.cn.groupBy))
	isGroupCol := make([]bool, p.width)
	for i, g := range p.cn.groupBy {
		if g.Op != fragment.OpCol {
			return false
		}
		groupCols[i] = g.Col
		isGroupCol[g.Col] = true
	}
	specs := make([]fragment.AggSpec, len(p.cn.aggs))
	for i, a := range p.cn.aggs {
		if a.distinct {
			return false // no mergeable partial state
		}
		specs[i] = a.spec
	}
	// Everything evaluated after the merge — outputs, HAVING, ORDER BY —
	// reads group rows, which carry only the group columns (rebuilt from
	// the group key) and the aggregate slots (carried as states).
	read := make([]bool, p.width+len(p.aggs))
	fragment.ExprCols(p.cn.having, read)
	for _, es := range [][]fragment.Expr{p.cn.outs, p.cn.order} {
		for i := range es {
			fragment.ExprCols(&es[i], read)
		}
	}
	for c := 0; c < p.width; c++ {
		if read[c] && !isGroupCol[c] {
			return false
		}
	}
	pp.frag.GroupBy = groupCols
	pp.frag.Aggs = specs
	pp.agg = true
	pp.groupCols = groupCols
	return true
}

// cnCols marks the combined-row columns the computing node reads after its
// scans: those of filter, the outputs, ORDER BY keys, HAVING, GROUP BY keys
// and aggregate arguments.
func (p *selectPlan) cnCols(filter *fragment.Expr) []bool {
	need := make([]bool, p.width+len(p.aggs))
	fragment.ExprCols(filter, need)
	fragment.ExprCols(p.cn.having, need)
	for _, es := range [][]fragment.Expr{p.cn.outs, p.cn.order, p.cn.groupBy} {
		for i := range es {
			fragment.ExprCols(&es[i], need)
		}
	}
	for _, a := range p.cn.aggs {
		fragment.ExprCols(a.spec.Arg, need)
	}
	return need[:p.width]
}

// neededCols lists the positions need marks, in ascending order, or
// returns nil when it marks every one (shipping full rows costs nothing
// extra).
func neededCols(need []bool) []int {
	out := []int{}
	for c, ok := range need {
		if ok {
			out = append(out, c)
		}
	}
	if len(out) == len(need) {
		return nil
	}
	return out
}

// projectionFor computes the outer columns the CN still needs once the
// pushed conjuncts run DN-side. Returns nil when every column is needed.
func projectionFor(p *selectPlan, cnFilter *fragment.Expr) []int {
	need := p.cnCols(cnFilter)
	if p.inner != nil {
		// Inner lookups bind outer columns in their key and range exprs.
		for i := range p.inner.keys {
			fragment.ExprCols(&p.inner.keys[i], need)
		}
		fragment.ExprCols(p.inner.lo, need)
		fragment.ExprCols(p.inner.hi, need)
	}
	out := neededCols(need[:len(p.outer.tab.schema.Columns)])
	if out != nil && len(out) == 0 {
		// Keep at least one column so shipped rows stay decodable (e.g.
		// SELECT COUNT(*) on the CN-side grouped path).
		out = append(out, 0)
	}
	return out
}

// andAll folds compiled conjuncts into one fragment expression.
func andAll(conjs []*fragment.Expr) *fragment.Expr {
	if len(conjs) == 0 {
		return nil
	}
	acc := conjs[0]
	for _, c := range conjs[1:] {
		acc = &fragment.Expr{Op: fragment.OpAnd, Args: []fragment.Expr{*acc, *c}}
	}
	return acc
}

// andAll2 folds gsql conjuncts back into one residual expression.
func andAll2(conjs []Expr) Expr {
	if len(conjs) == 0 {
		return nil
	}
	acc := conjs[0]
	for _, c := range conjs[1:] {
		acc = &BinaryExpr{Op: "AND", Left: acc, Right: c}
	}
	return acc
}

// describe renders the DN-partial / CN-final split for EXPLAIN.
func (pp *pushPlan) describe(p *selectPlan) []string {
	var out []string
	var dn []string
	if len(pp.pushedExprs) > 0 {
		parts := make([]string, len(pp.pushedExprs))
		for i, e := range pp.pushedExprs {
			parts[i] = e.String()
		}
		dn = append(dn, "filter "+strings.Join(parts, " AND "))
	}
	if pp.agg {
		parts := make([]string, len(p.aggs))
		for i, fn := range p.aggs {
			parts[i] = fn.String()
		}
		dn = append(dn, "partial-aggregate ["+strings.Join(parts, ", ")+"]")
		if len(p.groupBy) > 0 {
			gparts := make([]string, len(p.groupBy))
			for i, g := range p.groupBy {
				gparts[i] = g.String()
			}
			dn = append(dn, "group by ["+strings.Join(gparts, ", ")+"]")
		}
	} else if len(pp.projected) > 0 {
		dn = append(dn, "project ["+strings.Join(pp.projected, ", ")+"]")
	}
	out = append(out, "  dn-pushdown: "+strings.Join(dn, ", "))
	switch {
	case pp.agg:
		out = append(out, "  cn-final: merge partial aggregate states across shards")
	case pp.residual != nil:
		out = append(out, "  cn-residual filter: "+pp.residual.String())
	default:
		out = append(out, "  cn-residual filter: none")
	}
	return out
}
