package sql

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"plabi/internal/relation"
)

// FuzzParseSelect drives the SQL lexer and parser with arbitrary input.
// The invariants are the ones the rest of the system leans on: the parser
// never panics, a successful parse yields a non-nil statement, and the
// statement's rendering re-parses to a statement that renders identically
// (String is the parser's own normal form, so it must be a fixed point).
func FuzzParseSelect(f *testing.F) {
	seeds := []string{
		"SELECT drug, COUNT(*) AS consumption FROM rx_wide GROUP BY drug ORDER BY drug",
		"SELECT p.drug, c.cost FROM prescriptions p JOIN drugcost c ON p.drug = c.drug WHERE p.disease = 'flu'",
		"SELECT DISTINCT city FROM patients WHERE age >= 65 ORDER BY city LIMIT 10",
		"SELECT a.x, b.y FROM t1 a LEFT JOIN t2 b ON a.id = b.id AND a.k = b.k",
		"SELECT SUM(cost) AS total, COUNT(DISTINCT patient) FROM rx GROUP BY drug, disease",
		"SELECT * FROM t WHERE NOT (a = 1 OR b < 2.5) AND c <> 'x'",
		"select x from t where s like 'a%b_c'",
		"SELECT x FROM t WHERE d IS NULL OR d IS NOT NULL",
		"SELECT 1 + 2 * 3 - -4 / 5 AS n FROM t",
		"SELECT x FROM",
		"SELECT FROM WHERE",
		"'unterminated",
		"SELECT \"quoted col\" FROM \"quoted table\"",
		"",
		"\x00\xff",
		strings.Repeat("(", 100) + "1" + strings.Repeat(")", 100),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := ParseSelect(src)
		if err != nil {
			return
		}
		if stmt == nil {
			t.Fatalf("nil statement without error for %q", src)
		}
		rendered := stmt.String()
		again, err := ParseSelect(rendered)
		if err != nil {
			t.Fatalf("rendering of %q does not re-parse: %q: %v", src, rendered, err)
		}
		if again.String() != rendered {
			t.Fatalf("String is not a fixed point:\n first: %q\nsecond: %q", rendered, again.String())
		}
	})
}

// FuzzWhereEval parses arbitrary WHERE clauses and evaluates them over a
// fixed table holding every value kind, NULLs, a NaN and a mixed-kind
// cell. On every row the predicate bound to the table's schema must
// select exactly what the unbound expression selects, with the same error
// text, and a predicate SafePredicate accepts must error on no row.
func FuzzWhereEval(f *testing.F) {
	seeds := []string{
		"s = 'HIV' AND i > 0",
		"NOT (f < 2.5 OR b) AND date >= DATE '2007-06-01'",
		"i IN (1, -3, NULL) OR s NOT IN ('a', s)",
		"-i * 2 + f / 0 > i % 0",
		"s || i LIKE 'H%1' AND UPPER(s) <> LOWER(s)",
		"(i - 1) IS NULL OR COALESCE(f, i) IS NOT NULL",
		"SUBSTR(s, 1, 2) = 'HI' OR LENGTH(s, i) = 1",
		"NO_SUCH_FN(s) OR missing = 1",
		"i BETWEEN -3 AND 1 AND s NOT LIKE '%x'",
		"YEAR(date) = 2007 AND CAST_INT(s) = 7",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	schema := relation.NewSchema(relation.Col("s", relation.TString), relation.Col("i", relation.TInt),
		relation.Col("f", relation.TFloat), relation.Col("b", relation.TBool), relation.Col("date", relation.TDate))
	rows := []relation.Row{
		{relation.Str("HIV"), relation.Int(1), relation.Float(2.5), relation.Bool(true), relation.DateYMD(2007, 2, 12)},
		{relation.Str(""), relation.Int(-3), relation.Float(math.NaN()), relation.Bool(false), relation.DateYMD(2008, 4, 15)},
		{relation.Null(), relation.Int(0), relation.Float(math.Copysign(0, -1)), relation.Null(), relation.Null()},
		{relation.Str("flu"), relation.Null(), relation.Null(), relation.Bool(true), relation.DateYMD(2007, 10, 15)},
		{relation.Str("a"), relation.Str("7"), relation.Float(1e16), relation.Bool(false), relation.DateYMD(2007, 1, 1)},
	}
	f.Fuzz(func(t *testing.T, where string) {
		// LIKE matching backtracks; bound the pattern work per input.
		if len(where) > 256 || strings.Count(where, "%") > 4 {
			return
		}
		stmt, err := ParseSelect("SELECT * FROM t WHERE " + where)
		if err != nil || stmt.Where == nil {
			return
		}
		bound := relation.CompilePredicate(stmt.Where, schema)
		safe := relation.SafePredicate(stmt.Where, schema)
		for i, r := range rows {
			got, gotErr := bound.Selected(r)
			want, wantErr := relation.EvalPredicate(stmt.Where, r, schema)
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s, row %d: bound = %v, %v; unbound = %v, %v", stmt.Where, i, got, gotErr, want, wantErr)
			}
			if safe && wantErr != nil {
				t.Fatalf("%s, row %d: safe predicate errored: %v", stmt.Where, i, wantErr)
			}
		}
	})
}
