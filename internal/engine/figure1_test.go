package engine

import (
	"math"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
)

// figure1DB builds the paper's running-example database (Figure 1):
// suppliers S, product-supplier pairs PS and product tables P1, P2, all
// tuple-independent with the given marginal probability.
func figure1DB(p float64) *pvc.Database {
	db := pvc.NewDatabase(algebra.Boolean)

	s := pvc.NewRelation("S", pvc.Schema{
		{Name: "sid", Type: pvc.TValue},
		{Name: "shop", Type: pvc.TString},
	})
	for i, shop := range []string{"M&S", "M&S", "M&S", "Gap", "Gap"} {
		x := varName("x", i+1)
		db.Registry.DeclareBool(x, p)
		s.MustInsert(expr.V(x), pvc.IntCell(int64(i+1)), pvc.StringCell(shop))
	}
	db.Add(s)

	ps := pvc.NewRelation("PS", pvc.Schema{
		{Name: "sid", Type: pvc.TValue},
		{Name: "pid", Type: pvc.TValue},
		{Name: "price", Type: pvc.TValue},
	})
	for _, row := range []struct{ sid, pid, price int64 }{
		{1, 1, 10}, {1, 2, 50}, {2, 1, 11}, {2, 2, 60}, {3, 3, 15},
		{3, 4, 40}, {4, 1, 15}, {4, 3, 60}, {5, 1, 10},
	} {
		y := varName("y", int(row.sid*10+row.pid))
		db.Registry.DeclareBool(y, p)
		ps.MustInsert(expr.V(y), pvc.IntCell(row.sid), pvc.IntCell(row.pid), pvc.IntCell(row.price))
	}
	db.Add(ps)

	p1 := pvc.NewRelation("P1", pvc.Schema{
		{Name: "pid", Type: pvc.TValue},
		{Name: "weight", Type: pvc.TValue},
	})
	for i, row := range []struct{ pid, weight int64 }{{1, 4}, {2, 8}, {3, 7}, {4, 6}} {
		z := varName("z", i+1)
		db.Registry.DeclareBool(z, p)
		p1.MustInsert(expr.V(z), pvc.IntCell(row.pid), pvc.IntCell(row.weight))
	}
	db.Add(p1)

	p2 := pvc.NewRelation("P2", pvc.Schema{
		{Name: "pid", Type: pvc.TValue},
		{Name: "weight", Type: pvc.TValue},
	})
	db.Registry.DeclareBool("z5", p)
	p2.MustInsert(expr.V("z5"), pvc.IntCell(1), pvc.IntCell(5))
	db.Add(p2)
	return db
}

func varName(prefix string, i int) string {
	return prefix + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// q1Plan is Q1 = π_{shop,price}[S ⋈ PS ⋈ (P1 ∪ P2)] from Figure 1(d).
func q1Plan() Plan {
	return &Project{
		Cols: []string{"shop", "price"},
		Input: &Join{
			L: &Join{L: &Scan{Table: "S"}, R: &Scan{Table: "PS"}},
			R: &Union{L: &Scan{Table: "P1"}, R: &Scan{Table: "P2"}},
		},
	}
}

// q2Plan is Q2 = π_shop σ_{P≤50} $_{shop;P←MAX(price)}[Q1] from Figure 1(e).
func q2Plan(agg algebra.Agg) Plan {
	return &Project{
		Cols: []string{"shop"},
		Input: &Select{
			Pred: Where(ColTheta("P", value.LE, pvc.IntCell(50))),
			Input: &GroupAgg{
				Input:   q1Plan(),
				GroupBy: []string{"shop"},
				Aggs:    []AggSpec{{Out: "P", Agg: agg, Over: "price"}},
			},
		},
	}
}

func TestFigure1Q1Tuples(t *testing.T) {
	db := figure1DB(0.5)
	rel, err := eval(db, q1Plan())
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 9 {
		t.Fatalf("Q1 has %d tuples, want 9 (Figure 1d): \n%s", rel.Len(), rel)
	}
	// Annotation of 〈M&S, 10〉 must be equivalent to x1·y11·(z1+z5):
	// probability p·p·(1−(1−p)²) at p = 0.5.
	results := exactResults(t, db, rel)
	var found bool
	for _, r := range results {
		if r.Tuple.Cells[0].Str() == "M&S" && r.Tuple.Cells[1].Value() == value.Int(10) {
			found = true
			want := 0.5 * 0.5 * (1 - 0.25)
			if math.Abs(r.Confidence.Lo-want) > 1e-12 {
				t.Errorf("P[〈M&S,10〉] = %v, want %v", r.Confidence.Lo, want)
			}
		}
	}
	if !found {
		t.Fatalf("tuple 〈M&S,10〉 missing from Q1 result")
	}
}

// The commuting diagram: the confidence of each Q2 answer computed via
// annotations and d-trees equals the brute-force possible-worlds
// probability of the answer under deterministic query semantics.
func TestFigure1Q2AgainstPossibleWorlds(t *testing.T) {
	db := figure1DB(0.4)
	rel, err := eval(db, q2Plan(algebra.Max))
	if err != nil {
		t.Fatal(err)
	}
	results := exactResults(t, db, rel)
	if rel.Len() != 2 {
		t.Fatalf("Q2 result has %d tuples, want 2:\n%s", rel.Len(), rel)
	}
	got := map[string]float64{}
	for _, r := range results {
		got[r.Tuple.Cells[0].Str()] = r.Confidence.Lo
	}
	want := bruteForceQ2(t, db, func(prices []int64) (int64, bool) {
		mx := int64(math.MinInt64)
		for _, p := range prices {
			if p > mx {
				mx = p
			}
		}
		return mx, len(prices) > 0
	})
	for shop, w := range want {
		if math.Abs(got[shop]-w) > 1e-9 {
			t.Errorf("P[%s] = %v, want %v (possible-worlds ground truth)", shop, got[shop], w)
		}
	}
}

// Example 9: with MIN instead of MAX the same diagram must commute (the
// group-emptiness condition interacts differently but stays correct).
func TestFigure1Q2PrimeMinAgainstPossibleWorlds(t *testing.T) {
	db := figure1DB(0.35)
	rel, err := eval(db, q2Plan(algebra.Min))
	if err != nil {
		t.Fatal(err)
	}
	results := exactResults(t, db, rel)
	got := map[string]float64{}
	for _, r := range results {
		got[r.Tuple.Cells[0].Str()] = r.Confidence.Lo
	}
	want := bruteForceQ2(t, db, func(prices []int64) (int64, bool) {
		mn := int64(math.MaxInt64)
		for _, p := range prices {
			if p < mn {
				mn = p
			}
		}
		return mn, len(prices) > 0
	})
	for shop, w := range want {
		if math.Abs(got[shop]-w) > 1e-9 {
			t.Errorf("P[%s] = %v, want %v", shop, got[shop], w)
		}
	}
}

// bruteForceQ2 evaluates Q2's deterministic semantics in every possible
// world: a shop answers if its group of joined prices is non-empty and the
// aggregate of the prices is ≤ 50.
func bruteForceQ2(t *testing.T, db *pvc.Database, agg func([]int64) (int64, bool)) map[string]float64 {
	t.Helper()
	suppliers := []struct {
		v    string
		sid  int64
		shop string
	}{
		{"x1", 1, "M&S"}, {"x2", 2, "M&S"}, {"x3", 3, "M&S"}, {"x4", 4, "Gap"}, {"x5", 5, "Gap"},
	}
	psRows := []struct {
		v        string
		sid, pid int64
		price    int64
	}{
		{"y11", 1, 1, 10}, {"y12", 1, 2, 50}, {"y21", 2, 1, 11}, {"y22", 2, 2, 60},
		{"y33", 3, 3, 15}, {"y34", 3, 4, 40}, {"y41", 4, 1, 15}, {"y43", 4, 3, 60}, {"y51", 5, 1, 10},
	}
	products := []struct {
		v   string
		pid int64
	}{
		{"z1", 1}, {"z2", 2}, {"z3", 3}, {"z4", 4}, {"z5", 1},
	}
	all := db.Registry.Names()
	want := map[string]float64{}
	err := db.Registry.Enumerate(all, func(nu expr.Valuation, p float64) {
		if p == 0 {
			return
		}
		pids := map[int64]bool{}
		for _, pr := range products {
			if nu[pr.v].Truth() {
				pids[pr.pid] = true
			}
		}
		shopPrices := map[string][]int64{}
		for _, s := range suppliers {
			if !nu[s.v].Truth() {
				continue
			}
			for _, ps := range psRows {
				if ps.sid != s.sid || !nu[ps.v].Truth() || !pids[ps.pid] {
					continue
				}
				shopPrices[s.shop] = append(shopPrices[s.shop], ps.price)
			}
		}
		for shop, prices := range shopPrices {
			if v, ok := agg(prices); ok && v <= 50 {
				want[shop] += p
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}
