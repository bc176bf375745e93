package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// WriteCSV streams the table as CSV with a header row. NULLs are written
// as empty fields.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema.ColumnNames()); err != nil {
		return fmt.Errorf("relation: write csv header: %w", err)
	}
	m, err := t.Materialize()
	if err != nil {
		return err
	}
	record := make([]string, t.Schema.Len())
	for _, row := range m.Rows {
		for i, v := range row {
			if v.IsNull() {
				record[i] = ""
			} else {
				record[i] = v.String()
			}
		}
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("relation: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads a base table from CSV. The first record is the header.
// Column types are taken from the provided schema when non-nil (columns
// are matched by header name); otherwise every value is parsed with type
// inference: INT, then FLOAT, then DATE (ISO), then BOOL, else STRING —
// with the inferred type fixed per column from its first non-empty value.
// Empty fields load as NULL.
func ReadCSV(name string, r io.Reader, schema *Schema) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: read csv header: %w", err)
	}
	for i := range header {
		header[i] = strings.TrimSpace(header[i])
		if header[i] == "" {
			return nil, fmt.Errorf("relation: empty column name at position %d", i)
		}
	}

	types := make([]Type, len(header))
	if schema != nil {
		for i, h := range header {
			ci := schema.Index(h)
			if ci < 0 {
				return nil, fmt.Errorf("relation: csv column %q not in schema %s", h, schema)
			}
			types[i] = schema.Columns[ci].Type
		}
	}

	var records [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: read csv: %w", err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("relation: csv row has %d fields, want %d", len(rec), len(header))
		}
		records = append(records, rec)
	}

	if schema == nil {
		for c := range header {
			types[c] = inferCSVType(records, c)
		}
	}

	cols := make([]Column, len(header))
	for i, h := range header {
		cols[i] = Column{Name: h, Type: types[i]}
	}
	out := NewBase(name, &Schema{Columns: cols})
	for ri, rec := range records {
		row := make(Row, len(header))
		for c, field := range rec {
			v, err := parseCSVValue(field, types[c])
			if err != nil {
				return nil, fmt.Errorf("relation: csv row %d column %q: %w", ri+1, header[c], err)
			}
			row[c] = v
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// inferCSVType picks the narrowest type every non-empty value of the
// column coerces to.
func inferCSVType(records [][]string, col int) Type {
	candidates := []Type{TInt, TFloat, TDate, TBool}
	viable := map[Type]bool{TInt: true, TFloat: true, TDate: true, TBool: true}
	seen := false
	for _, rec := range records {
		field := strings.TrimSpace(rec[col])
		if field == "" {
			continue
		}
		seen = true
		for t := range viable {
			if _, ok := Str(field).Coerce(t); !ok {
				delete(viable, t)
			}
		}
		if len(viable) == 0 {
			return TString
		}
	}
	if !seen {
		return TString
	}
	for _, t := range candidates {
		if viable[t] {
			return t
		}
	}
	return TString
}

func parseCSVValue(field string, t Type) (Value, error) {
	field = strings.TrimSpace(field)
	if field == "" {
		return Null(), nil
	}
	if t == TString || t == TNull {
		return Str(field), nil
	}
	v, ok := Str(field).Coerce(t)
	if !ok {
		return Null(), fmt.Errorf("cannot parse %q as %s", field, t)
	}
	return v, nil
}
