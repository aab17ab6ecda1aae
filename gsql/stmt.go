package gsql

import (
	"context"
	"fmt"
)

// Stmt is a prepared statement: parsed once, planned once, executed many
// times with fresh parameter values. The plan is revalidated against the
// cluster catalog's DDL version on every execution, so a CREATE/DROP TABLE
// between executions transparently replans instead of running a stale plan.
//
// A Stmt is bound to its Session and shares the session's no-concurrency
// contract.
type Stmt struct {
	sess   *Session
	cs     *preparedStatement
	closed bool
}

// Prepare parses and plans one SQL statement for repeated execution.
// Placeholders (`?` or `$n`) mark the parameter positions that Exec and
// Query bind.
func (s *Session) Prepare(ctx context.Context, sql string) (*Stmt, error) {
	cs, err := s.cachedStatement(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{sess: s, cs: cs}, nil
}

// Text returns the statement's SQL text.
func (st *Stmt) Text() string { return st.cs.text }

// NumParams reports how many parameter values Exec/Query expect.
func (st *Stmt) NumParams() int { return st.cs.numParams }

// Close releases the prepared statement. Further executions fail.
func (st *Stmt) Close() error {
	st.closed = true
	return nil
}

// revalidate returns the statement's plan, replanning if the catalog's DDL
// version moved since it was built.
func (st *Stmt) revalidate() (*preparedStatement, error) {
	if st.closed {
		return nil, fmt.Errorf("gsql: statement is closed")
	}
	version := st.sess.db.CatalogVersion()
	if st.cs.version == version {
		return st.cs, nil
	}
	cs, err := st.sess.prepareText(st.cs.text, version)
	if err != nil {
		return nil, err
	}
	st.cs = cs
	st.sess.plans.put(cs) // refresh the session cache too
	return cs, nil
}

// Exec runs the prepared statement with args bound to its placeholders.
// The hot path performs no parsing and, absent DDL, no planning.
func (st *Stmt) Exec(ctx context.Context, args ...any) (*Result, error) {
	cs, err := st.revalidate()
	if err != nil {
		return nil, err
	}
	params, err := bindArgs(cs.numParams, args)
	if err != nil {
		return nil, err
	}
	return st.sess.dispatch(ctx, cs, params)
}

// Query runs a prepared SELECT and streams its result rows.
func (st *Stmt) Query(ctx context.Context, args ...any) (*Rows, error) {
	cs, err := st.revalidate()
	if err != nil {
		return nil, err
	}
	return st.sess.query(ctx, cs, args)
}
