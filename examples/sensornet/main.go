// Sensornet: aggregation over measurement data — the introduction's
// motivating use-case for probabilistic databases ("data acquired through
// measurements"). A network of temperature sensors produces uncertain
// readings; we ask exact-probability questions about MIN/MAX/COUNT/SUM
// aggregates of the readings, including multi-valued (non-Boolean)
// discrete distributions. Run with:
//
//	go run ./examples/sensornet
package main

import (
	"context"
	"fmt"
	"log"

	"pvcagg"
)

func main() {
	reg := pvcagg.NewRegistry()

	// Each sensor reports with some probability (message loss). The
	// reading itself is a discrete distribution over calibrated values:
	// variable s_i is 0 when the message is lost, or the multiplicity 1
	// when it arrives.
	sensors := []sensor{
		{"roof", 0.95, 31},
		{"lobby", 0.99, 22},
		{"server_room", 0.90, 38},
		{"basement", 0.80, 17},
		{"annex", 0.60, 27},
	}
	for _, s := range sensors {
		reg.DeclareBool(s.name, s.arrival)
	}
	ctx := context.Background()
	// exec computes one expression's exact distribution through the
	// unified entrypoint.
	exec := func(e pvcagg.Expr) (pvcagg.Dist, *pvcagg.ExprResult) {
		res, err := pvcagg.ExecExpr(ctx, e, reg, pvcagg.Boolean)
		if err != nil {
			log.Fatal(err)
		}
		return res.Dist, res
	}

	// MAX: "does any sensor report above 35°C?" — fire-alarm style.
	terms := ""
	for i, s := range sensors {
		if i > 0 {
			terms += ", "
		}
		terms += fmt.Sprintf("%s @max %d", s.name, s.temp)
	}
	alarm := pvcagg.MustParseExpr("[max(" + terms + ") > 35]")
	d, res := exec(alarm)
	fmt.Printf("P[max temperature > 35°C] = %.4f  (d-tree: %d nodes)\n",
		d.P(pvcagg.BoolV(true)), res.Report.Compile.Nodes)

	// MIN: "is the coldest reported reading below 15°C?" Note the MIN
	// neutral element +∞: with no reports the condition is false.
	minTerms := ""
	for i, s := range sensors {
		if i > 0 {
			minTerms += ", "
		}
		minTerms += fmt.Sprintf("%s @min %d", s.name, s.temp)
	}
	frost := pvcagg.MustParseExpr("[min(" + minTerms + ") < 15]")
	d, _ = exec(frost)
	fmt.Printf("P[min temperature < 15°C] = %.4f (no sensor is below 15)\n", d.P(pvcagg.BoolV(true)))

	// COUNT: full distribution of how many sensors report.
	countTerms := ""
	for i, s := range sensors {
		if i > 0 {
			countTerms += ", "
		}
		countTerms += fmt.Sprintf("%s @count 1", s.name)
	}
	reports := pvcagg.MustParseExpr("count(" + countTerms + ")")
	d, _ = exec(reports)
	fmt.Println("\nreport-count distribution:")
	for _, pair := range d.Pairs() {
		fmt.Printf("  P[%s sensors report] = %.4f\n", pair.V, pair.P)
	}

	// Quorum: the building controller acts only if at least 4 sensors
	// report AND the average is plausible — here the SUM as a proxy.
	quorum := pvcagg.MustParseExpr(
		"[count(" + countTerms + ") >= 4] * [sum(" + sumTerms(sensors) + ") <= 120]")
	d, _ = exec(quorum)
	fmt.Printf("\nP[quorum ∧ sum ≤ 120] = %.4f\n", d.P(pvcagg.BoolV(true)))

	// Exact joint distribution of (quorum condition, report count) —
	// correlated expressions, handled by mutex decomposition.
	joint, err := pvcagg.Joint(ctx, []pvcagg.Expr{quorum, reports}, reg, pvcagg.Boolean)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\njoint (quorum, #reports):")
	for _, o := range joint {
		fmt.Printf("  P[quorum=%s, n=%s] = %.4f\n", o.Values[0], o.Values[1], o.P)
	}

	// The fire-alarm question again, declaratively: the readings become a
	// pvc-table and PVQL asks for the MAX — the optimizer prunes the
	// unused room column before aggregating.
	db := pvcagg.NewDatabase(pvcagg.Boolean)
	readings := pvcagg.NewRelation("readings", pvcagg.Schema{
		{Name: "room", Type: pvcagg.TString},
		{Name: "temp", Type: pvcagg.TValue},
	})
	for _, s := range sensors {
		if _, err := db.InsertIndependent(readings, s.arrival, pvcagg.StringCell(s.name), pvcagg.IntCell(s.temp)); err != nil {
			log.Fatal(err)
		}
	}
	db.Add(readings)
	qres, err := pvcagg.ExecQuery(ctx, db,
		"SELECT * FROM (SELECT MAX(temp) AS hottest FROM readings) WHERE hottest > 35")
	if err != nil {
		log.Fatal(err)
	}
	outs, err := qres.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPVQL: P[max temperature > 35°C] = %.4f, E[max | reported] via distribution %v\n",
		outs[0].Confidence.Lo, outs[0].AggDists[0])
}

// sensor is one uncertain temperature reading: the sensor's message
// arrives with probability arrival and reports temp.
type sensor struct {
	name    string
	arrival float64
	temp    int64
}

func sumTerms(sensors []sensor) string {
	out := ""
	for i, s := range sensors {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s @sum %d", s.name, s.temp)
	}
	return out
}
