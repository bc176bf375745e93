package anon

import (
	"fmt"
	"sort"
	"strings"

	"plabi/internal/relation"
)

// Stats summarizes a k-anonymization run.
type Stats struct {
	// Partitions is the number of equivalence classes produced.
	Partitions int
	// Suppressed is the number of rows removed because no partition of
	// size >= k could contain them.
	Suppressed int
	// Discernibility is the sum over classes of |class|^2 plus
	// |suppressed| * N — the standard cost metric (lower is better).
	Discernibility int64
	// AvgClassSize is the average equivalence-class size.
	AvgClassSize float64
}

// KAnonymize returns a copy of t whose quasi-identifier columns are
// generalized so that every combination of QI values occurs at least k
// times (k-anonymity, Sweeney [12]) using greedy Mondrian-style
// multidimensional median partitioning. QI columns become strings
// (ranges/sets render textually); remaining columns are untouched. Rows
// that cannot be covered are suppressed. Row lineage is preserved so
// provenance and aggregation-threshold checks still work downstream.
func KAnonymize(t *relation.Table, k int, qi []string) (*relation.Table, Stats, error) {
	t, err := t.Materialize() // the partitioning reads rows
	if err != nil {
		return nil, Stats{}, err
	}
	if k < 2 {
		return nil, Stats{}, fmt.Errorf("anon: k must be >= 2, got %d", k)
	}
	qiIdx := make([]int, len(qi))
	for i, q := range qi {
		idx := t.Schema.Index(q)
		if idx < 0 {
			return nil, Stats{}, fmt.Errorf("anon: quasi-identifier %q not in %s", q, t.Schema)
		}
		qiIdx[i] = idx
	}

	all := make([]int, t.NumRows())
	for i := range all {
		all[i] = i
	}

	var stats Stats
	var partitions [][]int
	if len(all) < k {
		stats.Suppressed = len(all)
		all = nil
	} else {
		partitions = mondrianSplit(t, all, qiIdx, k)
	}

	// Build the output: QI columns generalized per partition.
	out := &relation.Table{Name: t.Name + "_anon"}
	cols := make([]relation.Column, t.Schema.Len())
	copy(cols, t.Schema.Columns)
	for _, qc := range qiIdx {
		cols[qc] = relation.Column{Name: cols[qc].Name, Type: relation.TString}
	}
	out.Schema = &relation.Schema{Columns: cols}
	out.ColOrigin = make([]relation.ColRefSet, len(cols))
	for c := range cols {
		out.ColOrigin[c] = t.ColumnOrigin(c)
	}

	stats.Partitions = len(partitions)
	var classSum int64
	for _, part := range partitions {
		classSum += int64(len(part))
		stats.Discernibility += int64(len(part)) * int64(len(part))
		gen := make([]relation.Value, len(qiIdx))
		for qi, qc := range qiIdx {
			gen[qi] = summarizeColumn(t, part, qc)
		}
		for _, ri := range part {
			nr := t.Rows[ri].Clone()
			for qi, qc := range qiIdx {
				nr[qc] = gen[qi]
			}
			out.AppendDerived(nr, t, ri)
		}
	}
	stats.Discernibility += int64(stats.Suppressed) * int64(t.NumRows())
	if len(partitions) > 0 {
		stats.AvgClassSize = float64(classSum) / float64(len(partitions))
	}
	return out, stats, nil
}

// mondrianSplit recursively partitions rows so every partition has >= k
// members, choosing at each step the QI dimension with the most distinct
// values and splitting at its median.
func mondrianSplit(t *relation.Table, rows []int, qiIdx []int, k int) [][]int {
	if len(rows) < 2*k {
		return [][]int{rows}
	}
	// Pick the dimension with the widest spread (most distinct values).
	bestDim, bestDistinct := -1, 1
	for _, qc := range qiIdx {
		distinct := map[string]bool{}
		for _, ri := range rows {
			distinct[t.Rows[ri][qc].Key()] = true
			if len(distinct) > bestDistinct {
				bestDistinct = len(distinct)
				bestDim = qc
			}
		}
	}
	if bestDim < 0 {
		return [][]int{rows} // all QI values identical
	}
	// Sort rows along the chosen dimension and split at the median
	// boundary that keeps equal values together.
	sorted := append([]int(nil), rows...)
	sort.SliceStable(sorted, func(a, b int) bool {
		va, vb := t.Rows[sorted[a]][bestDim], t.Rows[sorted[b]][bestDim]
		if va.IsNull() {
			return !vb.IsNull()
		}
		if vb.IsNull() {
			return false
		}
		if c, ok := va.Compare(vb); ok {
			return c < 0
		}
		return va.Key() < vb.Key()
	})
	mid := len(sorted) / 2
	// Move the boundary forward so identical values stay in one side.
	lo := mid
	for lo > 0 && sameVal(t, sorted[lo-1], sorted[lo], bestDim) {
		lo--
	}
	hi := mid
	for hi < len(sorted) && hi > 0 && sameVal(t, sorted[hi-1], sorted[hi], bestDim) {
		hi++
	}
	// Prefer the boundary closer to the median that keeps both sides >= k.
	split := -1
	if lo >= k && len(sorted)-lo >= k {
		split = lo
	}
	if hi >= k && len(sorted)-hi >= k {
		if split < 0 || abs(hi-mid) < abs(mid-lo) {
			split = hi
		}
	}
	if split < 0 {
		return [][]int{rows}
	}
	left := mondrianSplit(t, sorted[:split], qiIdx, k)
	right := mondrianSplit(t, sorted[split:], qiIdx, k)
	return append(left, right...)
}

func sameVal(t *relation.Table, a, b, col int) bool {
	va, vb := t.Rows[a][col], t.Rows[b][col]
	if va.IsNull() && vb.IsNull() {
		return true
	}
	return va.Key() == vb.Key()
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// summarizeColumn renders the generalized value of one QI column over a
// partition: the value itself when unique; a [min-max] range for ordered
// types; a {a,b,c} set (or "*" when large) for categoricals.
func summarizeColumn(t *relation.Table, part []int, col int) relation.Value {
	distinct := map[string]relation.Value{}
	var keys []string
	for _, ri := range part {
		v := t.Rows[ri][col]
		k := v.Key()
		if _, ok := distinct[k]; !ok {
			distinct[k] = v
			keys = append(keys, k)
		}
	}
	if len(distinct) == 1 {
		v := distinct[keys[0]]
		if v.Kind == relation.TString {
			return v
		}
		return relation.Str(v.String())
	}
	// Ordered types get a range.
	var minV, maxV relation.Value
	ordered := true
	for _, k := range keys {
		v := distinct[k]
		if v.IsNull() {
			ordered = false
			break
		}
		if minV.IsNull() {
			minV, maxV = v, v
			continue
		}
		c, ok := v.Compare(minV)
		if !ok {
			ordered = false
			break
		}
		if c < 0 {
			minV = v
		}
		if c2, _ := v.Compare(maxV); c2 > 0 {
			maxV = v
		}
	}
	if ordered && minV.Kind != relation.TString {
		return relation.Str(fmt.Sprintf("[%s-%s]", minV, maxV))
	}
	if len(distinct) <= 4 {
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = distinct[k].String()
		}
		return relation.Str("{" + strings.Join(parts, ",") + "}")
	}
	return relation.Str("*")
}

// CheckKAnonymity reports whether every equivalence class over the QI
// columns has at least k members; violating class sizes are returned for
// diagnostics.
func CheckKAnonymity(t *relation.Table, k int, qi []string) (bool, []int, error) {
	t, err := t.Materialize() // the partitioning reads rows
	if err != nil {
		return false, nil, err
	}
	qiIdx := make([]int, len(qi))
	for i, q := range qi {
		idx := t.Schema.Index(q)
		if idx < 0 {
			return false, nil, fmt.Errorf("anon: quasi-identifier %q not in %s", q, t.Schema)
		}
		qiIdx[i] = idx
	}
	counts := classCounts(t, qiIdx)
	var violations []int
	for _, n := range counts {
		if n < k {
			violations = append(violations, n)
		}
	}
	sort.Ints(violations)
	return len(violations) == 0, violations, nil
}

// CheckLDiversity reports whether every QI equivalence class contains at
// least l distinct values of the sensitive attribute (distinct
// l-diversity).
func CheckLDiversity(t *relation.Table, l int, qi []string, sensitive string) (bool, error) {
	t, err := t.Materialize() // the partitioning reads rows
	if err != nil {
		return false, err
	}
	si := t.Schema.Index(sensitive)
	if si < 0 {
		return false, fmt.Errorf("anon: sensitive attribute %q not in %s", sensitive, t.Schema)
	}
	qiIdx := make([]int, len(qi))
	for i, q := range qi {
		idx := t.Schema.Index(q)
		if idx < 0 {
			return false, fmt.Errorf("anon: quasi-identifier %q not in %s", q, t.Schema)
		}
		qiIdx[i] = idx
	}
	classes := map[string]map[string]bool{}
	for ri := range t.Rows {
		key := classKey(t, ri, qiIdx)
		if classes[key] == nil {
			classes[key] = map[string]bool{}
		}
		classes[key][t.Rows[ri][si].Key()] = true
	}
	for _, vals := range classes {
		if len(vals) < l {
			return false, nil
		}
	}
	return true, nil
}

// EnforceLDiversity removes the equivalence classes of t that fail
// distinct l-diversity, returning the filtered table and the number of
// suppressed rows. Apply after KAnonymize to obtain both guarantees.
func EnforceLDiversity(t *relation.Table, l int, qi []string, sensitive string) (*relation.Table, int, error) {
	t, err := t.Materialize() // the partitioning reads rows
	if err != nil {
		return nil, 0, err
	}
	si := t.Schema.Index(sensitive)
	if si < 0 {
		return nil, 0, fmt.Errorf("anon: sensitive attribute %q not in %s", sensitive, t.Schema)
	}
	qiIdx := make([]int, len(qi))
	for i, q := range qi {
		idx := t.Schema.Index(q)
		if idx < 0 {
			return nil, 0, fmt.Errorf("anon: quasi-identifier %q not in %s", q, t.Schema)
		}
		qiIdx[i] = idx
	}
	diversity := map[string]map[string]bool{}
	for ri := range t.Rows {
		key := classKey(t, ri, qiIdx)
		if diversity[key] == nil {
			diversity[key] = map[string]bool{}
		}
		diversity[key][t.Rows[ri][si].Key()] = true
	}
	out := &relation.Table{Name: t.Name + "_ldiv", Schema: t.Schema.Clone()}
	out.ColOrigin = make([]relation.ColRefSet, t.Schema.Len())
	for c := range out.ColOrigin {
		out.ColOrigin[c] = t.ColumnOrigin(c)
	}
	suppressed := 0
	for ri := range t.Rows {
		if len(diversity[classKey(t, ri, qiIdx)]) < l {
			suppressed++
			continue
		}
		out.AppendDerived(t.Rows[ri], t, ri)
	}
	return out, suppressed, nil
}

func classKey(t *relation.Table, ri int, qiIdx []int) string {
	var b strings.Builder
	for _, qc := range qiIdx {
		b.WriteString(t.Rows[ri][qc].Key())
		b.WriteByte('|')
	}
	return b.String()
}

func classCounts(t *relation.Table, qiIdx []int) map[string]int {
	counts := map[string]int{}
	for ri := range t.Rows {
		counts[classKey(t, ri, qiIdx)]++
	}
	return counts
}
