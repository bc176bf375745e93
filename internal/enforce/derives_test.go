package enforce

import (
	"testing"

	"plabi/internal/relation"
	"plabi/internal/report"
	"plabi/internal/sql"
)

// TestReportJoiningProjectedTableIsBlocked: a warehouse table drawn from
// a ⋈ c and projected to c's column still derives every row from a, so a
// report joining it with b is blocked statically under a's prohibition,
// whichever columns the ON clause names.
func TestReportJoiningProjectedTableIsBlocked(t *testing.T) {
	a := relation.NewBase("a", relation.NewSchema(relation.Col("ac", relation.TInt)))
	c := relation.NewBase("c", relation.NewSchema(relation.Col("cid", relation.TInt), relation.Col("cname", relation.TString)))
	b := relation.NewBase("b", relation.NewSchema(relation.Col("bname", relation.TString), relation.Col("bval", relation.TInt)))
	for i := range 3 {
		a.AppendVals(relation.Int(int64(i)))
		c.AppendVals(relation.Int(int64(i)), relation.Str(string(rune('x'+i))))
		b.AppendVals(relation.Str(string(rune('x'+i))), relation.Int(int64(i)))
	}
	ac, err := relation.Join(relation.Rename(a, "l"), relation.Rename(c, "r"),
		relation.Eq(relation.ColRefExpr("l.ac"), relation.ColRefExpr("r.cid")), relation.InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	w, err := relation.ProjectCols(ac, "r.cname")
	if err != nil {
		t.Fatal(err)
	}
	w.Name = "w"
	cat := sql.NewCatalog()
	cat.Register(w, b)
	reg := registryWith(t, `
pla "a-src" { owner "oa"; level source; scope "a"; allow attribute *; allow join with c; forbid join with b; }
pla "b-src" { owner "ob"; level source; scope "b"; allow attribute *; }
pla "c-src" { owner "oc"; level source; scope "c"; allow attribute *; }`)
	e := NewReportEnforcer(reg, cat, Config{})
	p, _, err := e.ProgramFor(&report.Definition{ID: "r",
		Query: "SELECT w.cname, b.bval FROM w JOIN b ON w.cname = b.bname"}, "analyst", "quality")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range p.Static {
		if d.Outcome == Block && d.Rule == "join-permission" && d.Subject == "a JOIN b" {
			return
		}
	}
	t.Errorf("static decisions = %v, want a JOIN b blocked", p.Static)
}
