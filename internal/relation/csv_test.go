package relation

import (
	"bytes"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	src := prescriptionsFixture()
	var buf bytes.Buffer
	if err := src.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("prescriptions", &buf, src.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != src.NumRows() || !got.Schema.Equal(src.Schema) {
		t.Fatalf("shape: %d rows %s", got.NumRows(), got.Schema)
	}
	for i := range src.Rows {
		for c := range src.Rows[i] {
			a, b := src.Rows[i][c], got.Rows[i][c]
			if a.IsNull() != b.IsNull() || (!a.IsNull() && a.Key() != b.Key()) {
				t.Errorf("cell (%d,%d): %v vs %v", i, c, a, b)
			}
		}
	}
}

func TestReadCSVInference(t *testing.T) {
	csvText := "name,age,weight,member,joined\n" +
		"Alice,34,61.5,true,2007-02-12\n" +
		"Bob,41,82,false,2006-11-03\n" +
		"Carla,,75.2,,\n"
	got, err := ReadCSV("people", strings.NewReader(csvText), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := []Type{TString, TInt, TFloat, TBool, TDate}
	for i, w := range wantTypes {
		if got.Schema.Columns[i].Type != w {
			t.Errorf("column %d type = %v, want %v", i, got.Schema.Columns[i].Type, w)
		}
	}
	if got.Get(0, "age").I != 34 || got.Get(1, "weight").F != 82 {
		t.Errorf("values = %v", got.Rows)
	}
	if !got.Get(2, "age").IsNull() || !got.Get(2, "joined").IsNull() {
		t.Error("empty fields must load as NULL")
	}
	if got.Get(0, "joined").Kind != TDate || got.Get(0, "joined").T.Time().Year() != 2007 {
		t.Errorf("joined = %v", got.Get(0, "joined"))
	}
}

func TestReadCSVMixedColumnFallsBackToString(t *testing.T) {
	csvText := "code\n42\nx17\n"
	got, err := ReadCSV("t", strings.NewReader(csvText), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema.Columns[0].Type != TString {
		t.Errorf("type = %v", got.Schema.Columns[0].Type)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("t", strings.NewReader(""), nil); err == nil {
		t.Error("empty input must fail")
	}
	if _, err := ReadCSV("t", strings.NewReader("a,\n1,2\n"), nil); err == nil {
		t.Error("empty header name must fail")
	}
	if _, err := ReadCSV("t", strings.NewReader("a,b\n1\n"), nil); err == nil {
		t.Error("ragged row must fail")
	}
	schema := NewSchema(Col("a", TInt))
	if _, err := ReadCSV("t", strings.NewReader("zzz\n1\n"), schema); err == nil {
		t.Error("unknown column must fail against schema")
	}
	if _, err := ReadCSV("t", strings.NewReader("a\nnot-int\n"), schema); err == nil {
		t.Error("unparseable value must fail against schema")
	}
}

func TestReadCSVAllEmptyColumn(t *testing.T) {
	got, err := ReadCSV("t", strings.NewReader("a,b\n,1\n,2\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema.Columns[0].Type != TString {
		t.Errorf("all-empty column type = %v", got.Schema.Columns[0].Type)
	}
	if !got.Get(0, "a").IsNull() {
		t.Error("empty must be NULL")
	}
}
