package relation

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden segment files under testdata/")

// TestGoldenSegmentBytes pins the on-disk segment format: encoding the
// fixed fixture must reproduce the checked-in file byte for byte, so any
// format change is an explicit decision (run with -update to accept it),
// and the same input encoded twice is bitwise deterministic.
func TestGoldenSegmentBytes(t *testing.T) {
	tab := typesFixture()
	data, zones, err := encodeSegment("alltypes", 0, 0, tab.Schema, tab.Rows)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "alltypes.seg")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/relation -run Golden -update`): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("segment encoding drifted from %s (%d vs %d bytes); rerun with -update if intended",
			golden, len(data), len(want))
	}

	// Two-run determinism.
	data2, _, err := encodeSegment("alltypes", 0, 0, tab.Schema, tab.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("encoding is not deterministic across runs")
	}

	// The golden bytes decode back to the fixture.
	h, rows, err := decodeSegment(want)
	if err != nil {
		t.Fatal(err)
	}
	if h.Rows != len(tab.Rows) || h.Table != "alltypes" {
		t.Fatalf("header = %+v", h)
	}
	for i := range tab.Rows {
		if !sameRow(rows[i], tab.Rows[i]) {
			t.Fatalf("row %d: got %v want %v", i, rows[i], tab.Rows[i])
		}
	}

	// Zone sanity on the golden fixture: the int column has bounds, the
	// NaN/Inf-polluted float column and the all-null column do not.
	ii := tab.Schema.Index("i")
	if !zones[ii].hasZone || zones[ii].min.I != -3 || zones[ii].max.I != 42 {
		t.Errorf("int zone = %+v", zones[ii])
	}
	if zones[tab.Schema.Index("f")].hasZone {
		t.Error("NaN/Inf float column must not carry a zone")
	}
	az := zones[tab.Schema.Index("allnull")]
	if !az.allNull || az.hasZone {
		t.Errorf("all-null zone = %+v", az)
	}

	// A flipped bit in the header region is caught by the header CRC and
	// surfaces as the typed corruption error.
	c := append([]byte(nil), want...)
	c[len(segMagic)+6] ^= 0x01
	if _, _, err := decodeSegment(c); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("header corruption: err = %v, want ErrSegmentCorrupt", err)
	}
	var ce *CorruptError
	if _, _, err := decodeSegment(c); !errors.As(err, &ce) {
		t.Fatalf("header corruption: err = %T, want *CorruptError", err)
	}
}

// FuzzSegmentDecode drives both decoders over arbitrary bytes. As a whole
// file: the reference returns rows consistent with its header or a typed
// corruption error — never a panic, an unbounded allocation or silent junk
// — and the production path (framing, then every column through the vector
// decoder) fails exactly when it does and otherwise agrees cell for cell.
// As a bare block: a checksum is all but unreachable for a mutator, so the
// bytes after the first two are also fed to both column decoders directly,
// under the encoding and row count the first two choose.
func FuzzSegmentDecode(f *testing.F) {
	// Seeds: one segment per encoding family plus corrupt variants.
	seedTables := []*Table{typesFixture()}
	one := NewBase("one", NewSchema(Col("a", TInt), Col("b", TString)))
	one.AppendVals(Int(1), Str("x"))
	one.AppendVals(Null(), Str("x"))
	seedTables = append(seedTables, one)
	empty := NewBase("empty", NewSchema(Col("a", TBool)))
	seedTables = append(seedTables, empty)
	for _, tab := range seedTables {
		data, _, err := encodeSegment(tab.Name, 0, 0, tab.Schema, tab.Rows)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if len(data) > 16 {
			trunc := data[:len(data)-7]
			f.Add(trunc)
			flip := append([]byte(nil), data...)
			flip[len(flip)/2] ^= 0xff
			f.Add(flip)
		}
	}
	f.Add([]byte(segMagic))
	f.Add([]byte{})
	// A block that is wrong under a valid checksum: a dictionary code past
	// the dictionary.
	oneData, _, err := encodeSegment(one.Name, 0, 0, one.Schema, one.Rows)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(segReframe(f, oneData, badDictCode(1, 2)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 2 {
			fuzzBlock(t, data[2:], int(data[0]%(encDate+2)), int(data[1]%67))
		}
		h, rows, err := decodeSegment(data)
		vecs, vecErr := decodeSegmentVectors(data)
		if (err == nil) != (vecErr == nil) {
			t.Fatalf("row decode err = %v, vector decode err = %v", err, vecErr)
		}
		if err != nil {
			if !errors.Is(err, ErrSegmentCorrupt) || !errors.Is(vecErr, ErrSegmentCorrupt) {
				t.Fatalf("non-typed decode error: %v / %v", err, vecErr)
			}
			return
		}
		if h.Rows != len(rows) {
			t.Fatalf("header says %d rows, decoded %d", h.Rows, len(rows))
		}
		for ri, r := range rows {
			if len(r) != len(h.Cols) {
				t.Fatalf("row arity %d, header has %d columns", len(r), len(h.Cols))
			}
			for ci, want := range r {
				if got := vecs[ci].Value(ri); !sameRow(Row{got}, Row{want}) {
					t.Fatalf("cell (%d, %d): vector %v, rows %v", ri, ci, got, want)
				}
			}
		}
	})
}

// decodeSegmentVectors is the production read of a whole file: the framing
// checks, then every column block through decodeVector.
func decodeSegmentVectors(data []byte) ([]*Vector, error) {
	h, blocks, err := parseSegment(data)
	if err != nil {
		return nil, err
	}
	vecs := make([]*Vector, len(blocks))
	for ci, block := range blocks {
		if vecs[ci], err = decodeVector(block, ci, h.Cols[ci].Enc, h.Rows); err != nil {
			return nil, err
		}
	}
	return vecs, nil
}

// fuzzBlock requires the two column decoders to agree on one bare block:
// both fail with ErrSegmentCorrupt, or both succeed with equal cells.
func fuzzBlock(t *testing.T, block []byte, enc, n int) {
	want, err := decodeColumn(block, 0, enc, n)
	vec, vecErr := decodeVector(block, 0, enc, n)
	if (err == nil) != (vecErr == nil) {
		t.Fatalf("block enc=%d n=%d: reference err = %v, vector err = %v", enc, n, err, vecErr)
	}
	if err != nil {
		if !errors.Is(err, ErrSegmentCorrupt) || !errors.Is(vecErr, ErrSegmentCorrupt) {
			t.Fatalf("block enc=%d n=%d: non-typed decode error: %v / %v", enc, n, err, vecErr)
		}
		return
	}
	if vec.Len() != n || len(want) != n {
		t.Fatalf("block enc=%d n=%d: decoded %d / %d cells", enc, n, len(want), vec.Len())
	}
	for i, w := range want {
		if got := vec.Value(i); !sameRow(Row{got}, Row{w}) || vec.IsNull(i) != w.IsNull() {
			t.Fatalf("block enc=%d n=%d cell %d: vector %v, reference %v", enc, n, i, got, w)
		}
	}
}
