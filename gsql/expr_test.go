package gsql

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"globaldb/gsql/fragment"
	"globaldb/internal/table"
)

// evalResult is one evaluator's outcome.
type evalResult struct {
	v   any
	err error
}

// evalBoth evaluates a SQL expression with no columns in scope on the
// product path — compile, bind, fragment.Eval — and with the oracle's AST
// interpreter.
func evalBoth(t *testing.T, exprSQL string) (got, oracle evalResult) {
	t.Helper()
	e := mustParse(t, "SELECT "+exprSQL+" FROM t").(*Select).Items[0].Expr
	got.v, got.err = evalConst(e, nil)
	oracle.v, oracle.err = evalExpr(e, &oracleEnv{})
	return got, oracle
}

// evalSQL evaluates a SQL expression that must succeed on the product
// path, and checks the oracle agrees on its value.
func evalSQL(t *testing.T, exprSQL string) any {
	t.Helper()
	got, oracle := evalBoth(t, exprSQL)
	if got.err != nil {
		t.Fatalf("eval(%q): %v", exprSQL, got.err)
	}
	if oracle.err != nil || fmt.Sprintf("%T %v", got.v, got.v) != fmt.Sprintf("%T %v", oracle.v, oracle.v) {
		t.Fatalf("eval(%q) = %v (%T), oracle %v (%T), %v", exprSQL, got.v, got.v, oracle.v, oracle.v, oracle.err)
	}
	return got.v
}

// evalSQLErr evaluates a SQL expression that must fail on the product
// path and in the oracle, returning the product path's error.
func evalSQLErr(t *testing.T, exprSQL string) error {
	t.Helper()
	got, oracle := evalBoth(t, exprSQL)
	if got.err == nil || oracle.err == nil {
		t.Fatalf("eval(%q) = %v, %v (oracle error %v): want both to fail", exprSQL, got.v, got.err, oracle.err)
	}
	if errors.Is(got.err, ErrType) != errors.Is(oracle.err, ErrType) {
		t.Fatalf("eval(%q): error %v, oracle error %v", exprSQL, got.err, oracle.err)
	}
	return got.err
}

func TestEvalArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want any
	}{
		{"1 + 2", int64(3)},
		{"7 / 2", int64(3)},
		{"7 % 3", int64(1)},
		{"7.0 / 2", 3.5},
		{"1 + 2.5", 3.5},
		{"2 * 3 + 1", int64(7)},
		{"-(2 + 3)", int64(-5)},
		{"'ab' + 'cd'", "abcd"},
	}
	for _, c := range cases {
		if got := evalSQL(t, c.src); got != c.want {
			t.Errorf("%s = %v (%T), want %v", c.src, got, got, c.want)
		}
	}
}

func TestEvalDivisionByZero(t *testing.T) {
	evalSQLErr(t, "1 / 0")     // integer division by zero must fail
	evalSQLErr(t, "1.0 / 0.0") // float division by zero must fail
}

func TestEvalComparisons(t *testing.T) {
	cases := []struct {
		src  string
		want any
	}{
		{"1 < 2", true},
		{"2 <= 2", true},
		{"3 > 4", false},
		{"1 = 1.0", true},
		{"'a' < 'b'", true},
		{"'a' = 'a'", true},
		{"TRUE = TRUE", true},
		{"1 <> 2", true},
		{"2 BETWEEN 1 AND 3", true},
		{"4 NOT BETWEEN 1 AND 3", true},
		{"2 IN (1, 2, 3)", true},
		{"5 NOT IN (1, 2, 3)", true},
		{"NULL IS NULL", true},
		{"1 IS NOT NULL", true},
	}
	for _, c := range cases {
		if got := evalSQL(t, c.src); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalNullPropagation(t *testing.T) {
	for _, src := range []string{"NULL + 1", "1 < NULL", "NOT NULL", "NULL IN (1, 2)", "NULL BETWEEN 1 AND 2"} {
		if got := evalSQL(t, src); got != nil {
			t.Errorf("%s = %v, want NULL", src, got)
		}
	}
	// Three-valued logic short circuits.
	if got := evalSQL(t, "FALSE AND NULL"); got != false {
		t.Errorf("FALSE AND NULL = %v", got)
	}
	if got := evalSQL(t, "TRUE OR NULL"); got != true {
		t.Errorf("TRUE OR NULL = %v", got)
	}
	if got := evalSQL(t, "TRUE AND NULL"); got != nil {
		t.Errorf("TRUE AND NULL = %v", got)
	}
	if got := evalSQL(t, "FALSE OR NULL"); got != nil {
		t.Errorf("FALSE OR NULL = %v", got)
	}
}

func TestEvalLike(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"'hello' LIKE 'h%'", true},
		{"'hello' LIKE '%llo'", true},
		{"'hello' LIKE 'h_llo'", true},
		{"'hello' LIKE 'x%'", false},
		{"'h.llo' LIKE 'h.llo'", true},
		{"'hxllo' LIKE 'h.llo'", false}, // dot is literal, not a wildcard
		{"'hello' NOT LIKE 'x%'", true},
	}
	for _, c := range cases {
		if got := evalSQL(t, c.src); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalScalarFuncs(t *testing.T) {
	cases := []struct {
		src  string
		want any
	}{
		{"ABS(-3)", int64(3)},
		{"ABS(-2.5)", 2.5},
		{"LOWER('AbC')", "abc"},
		{"UPPER('AbC')", "ABC"},
		{"LENGTH('abcd')", int64(4)},
		{"COALESCE(NULL, NULL, 7)", int64(7)},
		{"COALESCE(NULL, 'x', 'y')", "x"},
		{"ABS(NULL)", nil},
	}
	for _, c := range cases {
		if got := evalSQL(t, c.src); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalTypeErrors(t *testing.T) {
	for _, src := range []string{"1 + 'x'", "'a' < 1", "NOT 5", "TRUE AND 3", "ABS('x')"} {
		if err := evalSQLErr(t, src); !errors.Is(err, ErrType) {
			t.Errorf("%s: err = %v, want ErrType", src, err)
		}
	}
}

func TestCompareProperties(t *testing.T) {
	// Antisymmetry and totality over int64/float64 mixes.
	f := func(a, b int64) bool {
		c1, err1 := fragment.Compare(a, b)
		c2, err2 := fragment.Compare(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a int64, b float64) bool {
		if math.IsNaN(b) {
			return true // NaN never enters storage (no NaN literals)
		}
		c1, err1 := fragment.Compare(a, b)
		c2, err2 := fragment.Compare(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return c1 == -c2
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestArithIntFloatProperties(t *testing.T) {
	// int64+int64 stays integral; mixing with float64 promotes.
	f := func(a, b int32) bool {
		v, err := fragment.Arith("+", int64(a), int64(b))
		if err != nil {
			return false
		}
		_, isInt := v.(int64)
		return isInt && v.(int64) == int64(a)+int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a int32, b float32) bool {
		v, err := fragment.Arith("*", int64(a), float64(b))
		if err != nil {
			return false
		}
		_, isFloat := v.(float64)
		return isFloat
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// TestCompileColumnResolution checks that column references resolve once,
// at compile time, to positions in the flat row — bare and qualified —
// and that unknown tables, unknown columns and ambiguous columns fail at
// plan time, before any row exists.
func TestCompileColumnResolution(t *testing.T) {
	sch := &table.Schema{
		ID:   1,
		Name: "t",
		Columns: []table.Column{
			{Name: "a", Kind: table.Int64},
			{Name: "b", Kind: table.String},
		},
		PK: []int{0},
	}
	sc := &scope{tables: []*boundTable{{ref: TableRef{Table: "t", Alias: "t"}, schema: sch}}, offs: []int{0}}
	row := table.Row{int64(7), "x"}
	for _, tc := range []struct {
		ref  *ColRef
		want any
	}{
		{&ColRef{Name: "a"}, int64(7)},        // bare ref
		{&ColRef{Table: "t", Name: "b"}, "x"}, // qualified ref
	} {
		fe, err := compileExpr(tc.ref, sc)
		if err != nil {
			t.Fatalf("compile %s: %v", tc.ref, err)
		}
		if v, err := fragment.Eval(fe, row); err != nil || v != tc.want {
			t.Fatalf("%s = %v, %v; want %v", tc.ref, v, err, tc.want)
		}
	}
	for _, ref := range []*ColRef{{Name: "nope"}, {Table: "u", Name: "a"}} {
		if _, err := compileExpr(ref, sc); err == nil {
			t.Fatalf("compile %s: unknown column or table must fail", ref)
		}
	}

	// Planning alone — no cluster, no rows — rejects them, and the
	// ambiguous column of a join.
	for _, sql := range []string{
		"SELECT nope FROM orders",
		"SELECT u.w_id FROM orders",
		"SELECT o_id FROM orders o JOIN lines l ON l.w_id = o.w_id",
		"SELECT o.o_id FROM orders o WHERE nope > 1",
		"SELECT COUNT(*) FROM orders o HAVING SUM(nope) > 1",
	} {
		if _, err := planSelect(testCatalog(), mustParse(t, sql).(*Select)); err == nil {
			t.Fatalf("plan(%q) succeeded, want a resolution error", sql)
		}
	}
}

func TestLikePatternCache(t *testing.T) {
	// Same pattern twice exercises the cache path.
	for i := 0; i < 2; i++ {
		ok, err := fragment.LikeMatch("abc", "a%")
		if err != nil || !ok {
			t.Fatalf("LikeMatch: %v %v", ok, err)
		}
	}
	if _, err := fragment.LikeMatch("x", "[("); err != nil {
		// Metacharacters are quoted, so this is a literal non-match.
		t.Fatalf("quoted pattern: %v", err)
	}
}
