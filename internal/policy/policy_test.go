package policy

import (
	"encoding/json"
	"strings"
	"testing"

	"plabi/internal/relation"
)

const hospitalPLA = `
# PLA elicited with the hospital for the prescriptions source (Fig. 2).
pla "hospital-prescriptions" {
    owner "hospital";
    level source;
    scope "prescriptions";
    purpose "reimbursement", "quality";

    allow attribute patient to roles analyst when disease <> 'HIV';
    allow attribute drug;
    deny attribute disease to roles analyst;
    aggregate min 5 by patient;
    anonymize attribute patient using pseudonym;
    anonymize attribute date using generalize level 2;
    release kanonymity 5 quasi age, zip ldiversity 2 on disease;
    forbid join with familydoctor;
    allow join with drugcost;
    forbid integration for municipality;
    retain 365 days;
    filter when disease <> 'HIV';
}
`

func mustParseOne(t *testing.T, src string) *PLA {
	t.Helper()
	p, err := ParseOne(src)
	if err != nil {
		t.Fatalf("ParseOne: %v", err)
	}
	return p
}

func TestParseFullPLA(t *testing.T) {
	p := mustParseOne(t, hospitalPLA)
	if p.ID != "hospital-prescriptions" || p.Owner != "hospital" {
		t.Errorf("header = %q/%q", p.ID, p.Owner)
	}
	if p.Level != LevelSource || p.Scope != "prescriptions" {
		t.Errorf("level/scope = %v/%q", p.Level, p.Scope)
	}
	if len(p.Purposes) != 2 || p.Purposes[0] != "reimbursement" {
		t.Errorf("purposes = %v", p.Purposes)
	}
	if len(p.Access) != 3 {
		t.Fatalf("access rules = %d", len(p.Access))
	}
	if p.Access[0].When == nil || !strings.Contains(p.Access[0].When.String(), "HIV") {
		t.Errorf("condition = %v", p.Access[0].When)
	}
	if len(p.Aggregations) != 1 || p.Aggregations[0].MinCount != 5 || p.Aggregations[0].By != "patient" {
		t.Errorf("aggregations = %v", p.Aggregations)
	}
	if len(p.Anonymize) != 2 || p.Anonymize[1].Method != AnonGeneralize || p.Anonymize[1].Param != 2 {
		t.Errorf("anonymize = %v", p.Anonymize)
	}
	if len(p.Release) != 1 || p.Release[0].K != 5 || p.Release[0].L != 2 || p.Release[0].Sensitive != "disease" {
		t.Errorf("release = %v", p.Release)
	}
	if len(p.Joins) != 2 || p.Joins[0].Effect != Deny || p.Joins[0].Other != "familydoctor" {
		t.Errorf("joins = %v", p.Joins)
	}
	if len(p.Integrations) != 1 || p.Integrations[0].Effect != Deny {
		t.Errorf("integrations = %v", p.Integrations)
	}
	if p.Retention == nil || p.Retention.Days != 365 {
		t.Errorf("retention = %v", p.Retention)
	}
	if len(p.Filters) != 1 {
		t.Errorf("filters = %v", p.Filters)
	}
	// 3 access + 1 aggregation + 2 anonymize + 1 release + 2 join +
	// 1 integration + 1 retention + 1 filter.
	if p.Atoms() != 12 {
		t.Errorf("atoms = %d, want 12", p.Atoms())
	}
}

func TestRoundTrip(t *testing.T) {
	p := mustParseOne(t, hospitalPLA)
	printed := p.String()
	p2, err := ParseOne(printed)
	if err != nil {
		t.Fatalf("re-parse of printed PLA failed: %v\n%s", err, printed)
	}
	if p2.String() != printed {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", printed, p2.String())
	}
}

func TestParseMultiplePLAs(t *testing.T) {
	src := `
pla "a" { scope "t1"; allow attribute x; }
pla "b" { scope "t2"; deny attribute y; }
`
	plas, err := ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(plas) != 2 || plas[0].ID != "a" || plas[1].ID != "b" {
		t.Errorf("plas = %v", plas)
	}
}

func TestParseErrorsDSL(t *testing.T) {
	bad := []string{
		``,
		`pla "x" {`,
		`pla "x" { scope "t"; aggregate min 0; }`,
		`pla "x" { scope "t"; release kanonymity 1 quasi a; }`,
		`pla "x" { scope "t"; release kanonymity 3 quasi a ldiversity 2; }`,
		`pla "x" { scope "t"; anonymize attribute a using nope; }`,
		`pla "x" { scope "t"; retain 0 days; }`,
		`pla "x" { scope "t"; bogus clause; }`,
		`pla "x" { scope "t"; filter when disease <> ; }`,
		`pla "x" { allow attribute a; }`, // no scope
		`pla "x" { scope "t"; allow nothing; }`,
	}
	for _, src := range bad {
		if _, err := ParseFile(src); err == nil {
			t.Errorf("ParseFile(%q) should fail", src)
		}
	}
}

func TestDecideAttribute(t *testing.T) {
	p := mustParseOne(t, hospitalPLA)
	// analyst can see patient (conditionally).
	d := p.DecideAttribute("patient", "analyst", "reimbursement")
	if d.Effect != Allow || len(d.Conditions) != 1 {
		t.Errorf("patient/analyst = %v", d)
	}
	// disease is denied to analysts.
	d = p.DecideAttribute("disease", "analyst", "reimbursement")
	if d.Effect != Deny {
		t.Errorf("disease/analyst = %v", d)
	}
	// drug is allowed to everyone.
	d = p.DecideAttribute("drug", "auditor", "")
	if d.Effect != Allow || len(d.Conditions) != 0 {
		t.Errorf("drug/auditor = %v", d)
	}
	// unknown attribute defaults to deny (closed world).
	d = p.DecideAttribute("doctor", "analyst", "")
	if d.Effect != Deny || len(d.Matched) != 0 {
		t.Errorf("doctor/analyst = %v", d)
	}
	// patient rule is scoped to analysts; other roles have no allow.
	d = p.DecideAttribute("patient", "auditor", "")
	if d.Effect != Deny {
		t.Errorf("patient/auditor = %v", d)
	}
}

func TestDenyDominates(t *testing.T) {
	src := `pla "x" { scope "t";
		allow attribute a to roles analyst;
		deny attribute a;
	}`
	p := mustParseOne(t, src)
	if d := p.DecideAttribute("a", "analyst", ""); d.Effect != Deny {
		t.Errorf("deny must dominate, got %v", d)
	}
}

func TestWildcardAttribute(t *testing.T) {
	src := `pla "x" { scope "t"; allow attribute * to roles auditor; }`
	p := mustParseOne(t, src)
	if d := p.DecideAttribute("anything", "auditor", ""); d.Effect != Allow {
		t.Errorf("wildcard allow failed: %v", d)
	}
	if d := p.DecideAttribute("anything", "analyst", ""); d.Effect != Deny {
		t.Errorf("wildcard should not leak to other roles: %v", d)
	}
}

func TestJoinAllowed(t *testing.T) {
	p := mustParseOne(t, hospitalPLA)
	if ok, _ := p.JoinAllowed("familydoctor"); ok {
		t.Error("familydoctor join must be forbidden")
	}
	if ok, _ := p.JoinAllowed("drugcost"); !ok {
		t.Error("drugcost join must be allowed")
	}
	// With join rules elicited, unlisted joins default to deny.
	if ok, _ := p.JoinAllowed("labresults"); ok {
		t.Error("unlisted join must be denied once join rules exist")
	}
	// With no join rules, joins are unconstrained.
	p2 := mustParseOne(t, `pla "y" { scope "t"; allow attribute a; }`)
	if ok, _ := p2.JoinAllowed("anything"); !ok {
		t.Error("no join rules must mean unconstrained")
	}
}

func TestIntegrationAllowed(t *testing.T) {
	p := mustParseOne(t, hospitalPLA)
	if ok, _ := p.IntegrationAllowed("municipality"); ok {
		t.Error("municipality integration must be forbidden")
	}
	if ok, _ := p.IntegrationAllowed("healthagency"); ok {
		t.Error("unlisted beneficiary defaults to deny")
	}
}

func TestMinAggregation(t *testing.T) {
	p := mustParseOne(t, hospitalPLA)
	if got := p.MinAggregation("patient"); got != 5 {
		t.Errorf("min by patient = %d", got)
	}
	if got := p.MinAggregation("doctor"); got != 0 {
		t.Errorf("min by doctor = %d", got)
	}
}

func TestComposeMostRestrictive(t *testing.T) {
	a := mustParseOne(t, `pla "a" { scope "t";
		allow attribute x;
		aggregate min 3 by patient;
		allow join with costs;
	}`)
	b := mustParseOne(t, `pla "b" { scope "t";
		allow attribute x when disease <> 'HIV';
		aggregate min 10 by patient;
		retain 30 days;
	}`)
	c := Compose(a, b)
	d := c.DecideAttribute("x", "analyst", "")
	if d.Effect != Allow || len(d.Conditions) != 1 {
		t.Errorf("composite decision = %v", d)
	}
	if got := c.MinAggregation("patient"); got != 10 {
		t.Errorf("composite threshold = %d, want max 10", got)
	}
	if got := c.Retention(); got != 30 {
		t.Errorf("composite retention = %d", got)
	}
	if len(c.Conflicts) != 0 {
		t.Errorf("unexpected conflicts: %v", c.Conflicts)
	}
}

func TestComposeDenyWins(t *testing.T) {
	a := mustParseOne(t, `pla "a" { scope "t"; allow attribute x; }`)
	b := mustParseOne(t, `pla "b" { scope "t"; deny attribute x; }`)
	c := Compose(a, b)
	if d := c.DecideAttribute("x", "any", ""); d.Effect != Deny {
		t.Errorf("deny must win: %v", d)
	}
	if len(c.Conflicts) != 1 || c.Conflicts[0].Kind != "access" {
		t.Errorf("conflicts = %v", c.Conflicts)
	}
}

func TestComposeJoinConflict(t *testing.T) {
	a := mustParseOne(t, `pla "a" { scope "t"; allow join with costs; }`)
	b := mustParseOne(t, `pla "b" { scope "t"; forbid join with costs; }`)
	c := Compose(a, b)
	if ok, reason := c.JoinAllowed("costs"); ok || reason == "" {
		t.Errorf("join should be denied with reason, got %v %q", ok, reason)
	}
	if len(c.Conflicts) != 1 || c.Conflicts[0].Kind != "join" {
		t.Errorf("conflicts = %v", c.Conflicts)
	}
}

func TestComposeAbstention(t *testing.T) {
	// A PLA with no rule about attribute z abstains; a single allow from
	// another PLA suffices.
	a := mustParseOne(t, `pla "a" { scope "t"; allow attribute z; }`)
	b := mustParseOne(t, `pla "b" { scope "t"; allow attribute other; }`)
	c := Compose(a, b)
	if d := c.DecideAttribute("z", "r", ""); d.Effect != Allow {
		t.Errorf("decision = %v", d)
	}
	// Nobody mentions w: deny.
	if d := c.DecideAttribute("w", "r", ""); d.Effect != Deny {
		t.Errorf("decision = %v", d)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	p := mustParseOne(t, hospitalPLA)
	if err := r.Add(p); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(p); err == nil {
		t.Error("duplicate id must fail")
	}
	q := mustParseOne(t, `pla "lab" { owner "lab"; level source; scope "labresults"; allow attribute result; }`)
	if err := r.Add(q); err != nil {
		t.Fatal(err)
	}
	comp := r.ForScope(LevelSource, "prescriptions")
	if len(comp.PLAs) != 1 || comp.PLAs[0].ID != "hospital-prescriptions" {
		t.Errorf("ForScope = %v", comp.PLAs)
	}
	comp = r.ForScopes(LevelSource, []string{"prescriptions", "labresults"})
	if len(comp.PLAs) != 2 {
		t.Errorf("ForScopes = %d", len(comp.PLAs))
	}
	if _, ok := r.ByID("lab"); !ok {
		t.Error("ByID failed")
	}
	if n := r.AtomCount(LevelSource); n != p.Atoms()+1 {
		t.Errorf("AtomCount = %d", n)
	}
	if n := r.AtomCount(LevelReport); n != 0 {
		t.Errorf("AtomCount(report) = %d", n)
	}
}

func TestWildcardScope(t *testing.T) {
	r := NewRegistry()
	p := mustParseOne(t, `pla "law" { owner "state"; level source; scope *; aggregate min 3; }`)
	if err := r.Add(p); err != nil {
		t.Fatal(err)
	}
	comp := r.ForScope(LevelSource, "anything")
	if len(comp.PLAs) != 1 {
		t.Errorf("wildcard scope should match: %v", comp.PLAs)
	}
}

func TestFilterConditionEvaluates(t *testing.T) {
	p := mustParseOne(t, hospitalPLA)
	schema := relation.NewSchema(relation.Col("disease", relation.TString))
	ok, err := relation.EvalPredicate(p.Filters[0].When, relation.Row{relation.Str("asthma")}, schema)
	if err != nil || !ok {
		t.Errorf("asthma should pass filter: %v %v", ok, err)
	}
	ok, err = relation.EvalPredicate(p.Filters[0].When, relation.Row{relation.Str("HIV")}, schema)
	if err != nil || ok {
		t.Errorf("HIV should fail filter: %v %v", ok, err)
	}
}

func TestLevelParse(t *testing.T) {
	for _, l := range Levels() {
		got, err := ParseLevel(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLevel(%s) = %v, %v", l, got, err)
		}
	}
	if _, err := ParseLevel("nope"); err == nil {
		t.Error("expected error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := mustParseOne(t, hospitalPLA)
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q PLA
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, data)
	}
	// The DSL rendering is the canonical comparison.
	if q.String() != p.String() {
		t.Errorf("JSON round trip mismatch:\n%s\nvs\n%s", p, &q)
	}
	if q.Atoms() != p.Atoms() {
		t.Errorf("atoms %d vs %d", q.Atoms(), p.Atoms())
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	bad := []string{
		`{"id":"x","level":"nope","scope":"t"}`,
		`{"id":"x","level":"source","scope":""}`,
		`{"id":"x","level":"source","scope":"t","access":[{"effect":"???","attribute":"a"}]}`,
		`{"id":"x","level":"source","scope":"t","access":[{"effect":"allow","attribute":"a","when":"((("}]}`,
		`{"id":"x","level":"source","scope":"t","aggregations":[{"min_count":0}]}`,
		`{"id":"x","level":"source","scope":"t","anonymize":[{"attribute":"a","method":"wat"}]}`,
		`{"id":"x","level":"source","scope":"t","filters":["NOT ((("]}`,
	}
	for _, src := range bad {
		var p PLA
		if err := json.Unmarshal([]byte(src), &p); err == nil {
			t.Errorf("Unmarshal(%s) should fail", src)
		}
	}
}

func TestCompositeAccessors(t *testing.T) {
	a := mustParseOne(t, hospitalPLA)
	b := mustParseOne(t, `pla "b" { owner "lab"; level source; scope "prescriptions";
		anonymize attribute doctor using suppress;
		aggregate min 2;
		release kanonymity 3 quasi age;
		filter when drug <> 'DX';
		allow integration for hospital;
	}`)
	c := Compose(a, b)
	if got := len(c.AggregationRules()); got != 2 {
		t.Errorf("aggregation rules = %d", got)
	}
	if got := len(c.AnonymizeRules()); got != 3 {
		t.Errorf("anonymize rules = %d", got)
	}
	if got := len(c.ReleaseRules()); got != 2 {
		t.Errorf("release rules = %d", got)
	}
	if got := len(c.Filters()); got != 2 {
		t.Errorf("filters = %d", got)
	}
	if ok, reason := c.IntegrationAllowed("municipality"); ok || reason == "" {
		t.Errorf("integration = %v %q", ok, reason)
	}
	if ok, _ := c.IntegrationAllowed("hospital"); ok {
		// PLA "a" has integration rules not listing hospital: deny wins.
		t.Error("hospital integration should be denied by a's closed world")
	}
}

func TestConflictString(t *testing.T) {
	c := Conflict{Kind: "access", Subject: "disease", AllowBy: "a", DenyBy: "b"}
	if s := c.String(); !strings.Contains(s, "disease") || !strings.Contains(s, "a") {
		t.Errorf("String = %q", s)
	}
}

func TestDecideAttributeRefsScoping(t *testing.T) {
	hospital := mustParseOne(t, `pla "h" { owner "hospital"; level source; scope "prescriptions";
		allow attribute disease to roles auditor; }`)
	agency := mustParseOne(t, `pla "a" { owner "agency"; level source; scope "drugcost";
		allow attribute *; }`)
	reportPLA := mustParseOne(t, `pla "r" { owner "hospital"; level report; scope "rep";
		allow attribute spend; }`)
	c := Compose(hospital, agency, reportPLA)

	// disease originates from prescriptions: the agency's wildcard (scoped
	// to drugcost) must NOT grant it.
	refs := []AttrRef{{Name: "disease", Table: "prescriptions"}}
	if d := c.DecideAttributeRefs(refs, "analyst", ""); d.Effect != Deny {
		t.Errorf("cross-scope leak: %v", d)
	}
	if d := c.DecideAttributeRefs(refs, "auditor", ""); d.Effect != Allow {
		t.Errorf("auditor should see disease: %v", d)
	}
	// A drugcost-originated column is granted by the wildcard.
	if d := c.DecideAttributeRefs([]AttrRef{{Name: "cost", Table: "drugcost"}}, "analyst", ""); d.Effect != Allow {
		t.Errorf("drugcost wildcard failed: %v", d)
	}
	// Report-level rules match the bare output name (Table "").
	if d := c.DecideAttributeRefs([]AttrRef{{Name: "spend"}}, "analyst", ""); d.Effect != Allow {
		t.Errorf("report-level allow failed: %v", d)
	}
	// Source rules never match bare output names.
	if d := c.DecideAttributeRefs([]AttrRef{{Name: "cost"}}, "analyst", ""); d.Effect != Deny {
		t.Errorf("bare name should not hit source PLAs: %v", d)
	}
}

func TestRegistryAll(t *testing.T) {
	r := NewRegistry()
	if err := r.Add(mustParseOne(t, `pla "x" { scope "t"; allow attribute a; }`)); err != nil {
		t.Fatal(err)
	}
	all := r.All()
	if len(all) != 1 || all[0].ID != "x" {
		t.Errorf("all = %v", all)
	}
	// All returns a copy: mutating it does not affect the registry.
	all[0] = nil
	if r.All()[0] == nil {
		t.Error("All must return a copy")
	}
}

func TestDSLNameQuoting(t *testing.T) {
	// A PLA whose names collide with keywords or contain odd characters
	// must still round-trip.
	p := &PLA{ID: "weird", Scope: "my table", Level: LevelSource,
		Access: []AccessRule{{Effect: Allow, Attribute: "when"}},
		Joins:  []JoinRule{{Effect: Deny, Other: "other-table"}},
	}
	printed := p.String()
	q, err := ParseOne(printed)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, printed)
	}
	if q.Scope != "my table" || q.Access[0].Attribute != "when" || q.Joins[0].Other != "other-table" {
		t.Errorf("round trip = %+v", q)
	}
}

func TestParseOneRejectsMany(t *testing.T) {
	if _, err := ParseOne(`pla "a" { scope "t"; allow attribute x; } pla "b" { scope "t"; allow attribute y; }`); err == nil {
		t.Error("ParseOne must reject multiple PLAs")
	}
}

// TestDeadRuleHelpers pins the two searches behind PL001 and program
// pruning: a covering deny shadows an allow whatever its condition, and a
// rule is redundant only behind an earlier unconditional rule of the same
// effect that covers it, and only when it is unconditional itself.
func TestDeadRuleHelpers(t *testing.T) {
	src := mustParseOne(t, `pla "src" { owner "h"; level source; scope "t";
    allow attribute *; allow attribute drug to roles analyst;
    allow attribute patient when disease <> 'HIV'; deny attribute zip; }`)
	lock := mustParseOne(t, `pla "lock" { owner "h"; level report; scope "r";
    deny attribute patient when disease = 'HIV'; }`)

	if by, i := ShadowingDeny([]*PLA{src, lock}, src.Access[2]); by != lock || i != 0 {
		t.Errorf("patient allow: shadowed by %v at %d, want lock at 0", by, i)
	}
	if by, i := ShadowingDeny([]*PLA{src, lock}, src.Access[1]); by != nil || i != -1 {
		t.Errorf("drug allow shadowed by %v at %d", by, i)
	}
	for i, want := range []int{-1, 0, -1, -1} {
		if got := CoveredEarlier(src, i); got != want {
			t.Errorf("CoveredEarlier(src, %d) = %d, want %d", i, got, want)
		}
	}
}
