package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"pvcagg/internal/gen"
)

// opIDs builds a workload's op list from a seed the way set-up does, but
// without generating data: the op texts depend on the seed alone.
func opIDs(t *testing.T, name string, seed int64) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var ids []string
	switch name {
	case "expr-exact":
		inst, err := setupExprExact(seed, exprParams)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range inst.ops {
			ids = append(ids, o.id)
		}
	case "tpch-agg":
		specs := tpchAggSpecs(rng)
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		for _, q := range specs {
			ids = append(ids, q.id+"|"+q.mode.String()+"|"+q.text)
		}
	case "store-scan":
		specs := storeScanSpecs(rng, int64(1500000*storeScanSF))
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		for _, q := range specs {
			ids = append(ids, q.id+"|"+q.mode.String()+"|"+q.text)
		}
	case "pvcd-mixed":
		slots := pvcdSchedule(rng)
		for i := range slots {
			for pass := -1; pass < 2; pass++ {
				ids = append(ids, slots[i].mode.String()+"|"+slots[i].text(pass, i))
			}
		}
	default:
		t.Fatalf("no op list for workload %q", name)
	}
	return ids
}

// The same seed gives the same ops, another seed gives other ops, and
// no op carries the name of its workload: the program under test only
// ever sees generated inputs.
func TestOpsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := opIDs(t, w.name, 7), opIDs(t, w.name, 7), opIDs(t, w.name, 8)
		if len(a) < 20 {
			t.Errorf("%s: %d ops, want at least 20", w.name, len(a))
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two builds from seed 7 differ", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same ops", w.name)
		}
		seen := map[string]bool{}
		for _, id := range a {
			if seen[id] && w.name != "pvcd-mixed" {
				t.Errorf("%s: op %q twice", w.name, id)
			}
			seen[id] = true
			for _, other := range workloads {
				if strings.Contains(id, other.name) {
					t.Errorf("%s: op %q names a workload", w.name, id)
				}
			}
		}
	}
}

// pvcd-mixed's cold slots must send a text no earlier pass sent, and its
// mix must be the stated one at every seed.
func TestPvcdSchedule(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		slots := pvcdSchedule(rand.New(rand.NewSource(seed)))
		hot, modes, hotTexts, sent := 0, map[string]int{}, map[string]bool{}, map[string]bool{}
		for i := range slots {
			s := &slots[i]
			modes[s.mode.name]++
			if s.hot {
				hot++
				hotTexts[s.text(0, i)] = true
				continue
			}
			for pass := -1; pass < 12; pass++ {
				text := s.text(pass, i)
				if sent[text] {
					t.Fatalf("seed %d: cold slot %d repeats %q in pass %d", seed, i, text, pass)
				}
				sent[text] = true
			}
		}
		if hot != 280 || len(hotTexts) != pvcdHot {
			t.Errorf("seed %d: %d hot slots over %d texts, want 280 over %d", seed, hot, len(hotTexts), pvcdHot)
		}
		if modes["exact"] != 240 || modes["anytime"] != 100 || modes["sample"] != 60 {
			t.Errorf("seed %d: modes %v, want 240 exact, 100 anytime, 60 sample", seed, modes)
		}
	}
}

// tiny is a TPC-H scale with a dozen lineitems: every result tuple's
// possible worlds can be enumerated.
const tiny = 0.000002

// Down-sized copies of the four workloads — the same op builders and the
// same run and stage paths over a dozen rows — against the possible-
// worlds oracle: equal on exact ops, contained on anytime ops, within
// the (doubled) Hoeffding interval on sample ops. The staged path must
// digest to the facade's.
func TestOpsAgainstPossibleWorlds(t *testing.T) {
	ctx := context.Background()
	small := map[string]func(int64, string) (*instance, error){
		"expr-exact": exprExact(gen.Params{NumVars: 6, NumClauses: 2, NumLiterals: 2, MaxV: 200}),
		"tpch-agg":   tpchAgg(tiny),
		"store-scan": storeScan(tiny),
		"pvcd-mixed": pvcdMixed(tiny),
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := small[w.name](3, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer inst.shutdown()
			ref := runPass(ctx, inst, 0, nil)
			if err := firstErr(inst, ref); err != nil {
				t.Fatal(err)
			}
			// The instance's own verifier: closed-form references, the
			// oracle, containment.
			for i, msg := range inst.verify(ctx, ref.answers) {
				t.Errorf("op %d (%s): %s", i, inst.ops[i].id, msg)
			}
			tr := newTracer()
			staged := runPass(ctx, inst, 1, tr)
			if err := firstErr(inst, staged); err != nil {
				t.Fatal(err)
			}
			checked := 0
			for i, a := range staged.answers {
				if !inst.ops[i].unstable && a.digest() != ref.answers[i].digest() {
					t.Errorf("op %d (%s): staged digest %s, facade %s", i, inst.ops[i].id, a.digest(), ref.answers[i].digest())
				}
				// Every tuple of every library op against the oracle,
				// whatever the op's own verifier chose to check.
				// (pvcd-mixed's answers come over HTTP; its staged replay
				// carries the relation.)
				got := &answer{rows: ref.answers[i].rows, extra: ref.answers[i].extra}
				if got.extra == nil {
					got.extra = a.extra
				}
				if x, ok := got.extra.(queryExtra); ok && x.rel != nil {
					if msg := checkOracle(got, modeOf(inst.ops[i].id)); msg != "" && !strings.HasPrefix(msg, "no tuple") {
						t.Errorf("op %d (%s): %s", i, inst.ops[i].id, msg)
					}
					checked += len(x.rel.Tuples)
				}
			}
			t.Logf("%d result tuples checked against possible worlds", checked)
			if w.name != "expr-exact" && checked == 0 {
				t.Error("no result tuple was checked against the oracle")
			}
			self, total := tr.selfTimes()
			if total["op"] == 0 || self["op"] > total["op"] {
				t.Errorf("op spans: self %v of total %v", self["op"], total["op"])
			}
		})
	}
}

// modeOf recovers the mode's slack class from an op id (query op ids end
// in "| <mode>").
func modeOf(id string) mode {
	switch {
	case strings.Contains(id, "| anytime("):
		return mode{name: "anytime", eps: 1}
	case strings.Contains(id, "| sample("):
		return mode{name: "sample", samples: pvcdSamples}
	default:
		return modeExact
	}
}

// BENCHMARK.json repeats the tables of this package; the two must agree.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, {%s %s} in the code", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the code", i, got, m)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		got := spec.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the code", i, got, m)
		}
	}
	if float64(spec.RunSeconds) != defaultSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %v", spec.RunSeconds, defaultSeconds)
	}
}

func TestQuantileAndCliffs(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 0.9); got != 100 {
		t.Errorf("p90 of 10..110 = %v, want 100", got)
	}
	rep := &runReport{ops: make([]op, 20), passes: make([]passResult, 9)}
	for i := range rep.ops {
		rep.opMed = append(rep.opMed, 10*float64(i+1)/(1+float64(i)/40)) // rises by < 20% per rank from rank 5 on
	}
	if c := rep.cliffs(); len(c) != 0 {
		t.Errorf("smooth distribution reported %v", c)
	}
	// PR 11's failure: half the ops cost 16 ms, the slow ones 68.
	for i := range rep.opMed {
		rep.opMed[i] = 16
		if i >= 10 {
			rep.opMed[i] = 68
		}
	}
	if c := rep.cliffs(); len(c) == 0 {
		t.Error("a bimodal distribution with the median between the modes was not reported")
	}
	rep.passes = rep.passes[:5]
	if c := rep.cliffs(); len(c) < 2 {
		t.Errorf("100 samples passed the minimum of %d: %v", minSamples, c)
	}
}

// firstErr returns the first op error of a pass, tagged with the op.
func firstErr(inst *instance, pr passResult) error {
	for i, err := range pr.errs {
		if err != nil {
			return fmt.Errorf("op %d (%s): %w", i, inst.ops[i].id, err)
		}
	}
	return nil
}
