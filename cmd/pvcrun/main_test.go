package main

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"pvcagg"
)

// TestExecOptions: the flag translation accepts every mode, rejects what
// it must with a message that says why, and hands -eps, -parallel,
// -seed and -timeout through — read back from the Strategy of a query
// run with the returned options on the shop demo.
func TestExecOptions(t *testing.T) {
	const query = "SELECT shop, COUNT(*) AS n FROM S GROUP BY shop"
	cases := []struct {
		name     string
		mode     string
		eps      float64
		parallel int
		timeout  time.Duration
		seed     int64
		seedSet  bool

		wantErr   string // substring of execOptions' error; "" = accepted
		requested pvcagg.Mode
		chosen    pvcagg.Mode
		wantEps   float64
		deadline  bool // the query must die of the timeout
	}{
		{name: "auto", mode: "auto", parallel: 1, requested: pvcagg.Auto, chosen: pvcagg.Exact},
		{name: "exact", mode: "exact", parallel: 3, requested: pvcagg.Exact, chosen: pvcagg.Exact},
		{name: "anytime", mode: "anytime", parallel: 0, requested: pvcagg.Anytime, chosen: pvcagg.Anytime, wantEps: pvcagg.DefaultEps},
		{name: "anytime-eps", mode: "anytime", eps: 0.125, parallel: 2, requested: pvcagg.Anytime, chosen: pvcagg.Anytime, wantEps: 0.125},
		{name: "sample", mode: "sample", parallel: 2, seed: 42, seedSet: true, requested: pvcagg.Sample, chosen: pvcagg.Sample},
		{name: "sample-seed-zero", mode: "sample", parallel: 1, seed: 0, seedSet: true, requested: pvcagg.Sample, chosen: pvcagg.Sample},
		{name: "timeout", mode: "exact", parallel: 1, timeout: time.Nanosecond, deadline: true},
		{name: "timeout-roomy", mode: "exact", parallel: 1, timeout: time.Minute, requested: pvcagg.Exact, chosen: pvcagg.Exact},
		{name: "sample-noseed", mode: "sample", parallel: 1, wantErr: "reproducible"},
		{name: "seed-wrong-mode", mode: "exact", parallel: 1, seed: 7, seedSet: true, wantErr: "-seed only applies to -mode sample"},
		{name: "unknown-mode", mode: "fast", parallel: 1, wantErr: `unknown mode "fast"`},
		{name: "empty-mode", mode: "", parallel: 1, wantErr: "unknown mode"},
	}
	db := shopDB(0.5)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts, err := execOptions(tc.mode, tc.eps, tc.parallel, tc.timeout, tc.seed, tc.seedSet)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one mentioning %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			res, err := pvcagg.ExecQuery(context.Background(), db, query, opts...)
			if tc.deadline {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("error %v, want the -timeout deadline", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			s := res.Strategy
			if s.Requested != tc.requested || s.Chosen != tc.chosen {
				t.Errorf("strategy %v→%v, want %v→%v", s.Requested, s.Chosen, tc.requested, tc.chosen)
			}
			if s.Parallelism != tc.parallel {
				t.Errorf("parallelism %d, want %d", s.Parallelism, tc.parallel)
			}
			if s.Eps != tc.wantEps {
				t.Errorf("eps %v, want %v", s.Eps, tc.wantEps)
			}
			if tc.chosen == pvcagg.Sample && (s.Seed != tc.seed || s.Samples != pvcagg.DefaultSamples) {
				t.Errorf("sample(n=%d, seed=%d), want n=%d seed=%d", s.Samples, s.Seed, pvcagg.DefaultSamples, tc.seed)
			}
			if outs, err := res.Collect(); err != nil || len(outs) != 2 {
				t.Errorf("%d outcomes, err %v; want the two shops", len(outs), err)
			}
		})
	}
}
