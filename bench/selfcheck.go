package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// This file drives whole-benchmark runs: -all (every metric of every
// workload), -selfcheck (is the benchmark itself steady?) and -update
// (rewrite the goldens). Each workload runs in a child process of its
// own, strictly one after the other, so no workload measures the heap or
// the page cache another one left behind.

// child runs this binary once for one workload and returns its result
// line; the child's other output is passed through.
func child(ctx context.Context, w *workload, seed int64, seconds float64, trace int, dir, out string, extra ...string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-dir", dir, "-out", out}
	cmd := exec.CommandContext(ctx, exe, append(args, extra...)...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println("   ", l)
	}
	if runErr != nil {
		fmt.Println("   ", lines[len(lines)-1])
		return nil, fmt.Errorf("%s: %w", w.name, runErr)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", w.name, err)
	}
	return &res, nil
}

// runAll is the one command that prints every metric by name with its
// unit: each workload untraced (end-to-end metrics), then traced
// (per-layer metrics).
func runAll(ctx context.Context, seed int64, seconds float64, dir, out string) int {
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			fmt.Printf("== %s, trace %d\n", w.name, trace)
			res, err := child(ctx, w, seed, seconds, trace, dir, out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
				continue
			}
			if !res.Correct {
				fmt.Printf("   %d of %d ops FAILED\n", res.Failed, res.Attempted)
				code = 1
			}
		}
	}
	return code
}

// runSelfcheck checks the benchmark, not the program: every workload
// runs twice on this binary, untraced and traced. It fails if a
// percentile sits on a cliff or on too few samples, if an end-to-end
// metric differs between the two sets by more than its own bound, if an
// op fails, or if a store counter — an exact count with one client —
// differs at all.
func runSelfcheck(ctx context.Context, seed int64, seconds float64, dir, out string) int {
	bad := 0
	complain := func(format string, args ...any) {
		bad++
		fmt.Printf("SELFCHECK FAIL: "+format+"\n", args...)
	}
	for _, w := range workloads {
		var sets [2]*result
		var traced [2]*result
		for s := range sets {
			fmt.Printf("== %s, set %d\n", w.name, s+1)
			var err error
			if sets[s], err = child(ctx, w, seed, seconds, 0, dir, out, "-cliff"); err != nil {
				complain("%v", err)
				return 1
			}
			if traced[s], err = child(ctx, w, seed, seconds, 1, dir, out); err != nil {
				complain("%v", err)
				return 1
			}
			for _, r := range []*result{sets[s], traced[s]} {
				if !r.Correct {
					complain("%s: %d of %d ops failed", w.name, r.Failed, r.Attempted)
				}
			}
		}
		fmt.Printf("== %s: set 1 against set 2\n", w.name)
		for _, m := range endToEnd {
			a, b := sets[0].Metrics[m.name].Value, sets[1].Metrics[m.name].Value
			dev := max(a, b)/min(a, b) - 1
			verdict := "ok"
			if dev > m.bound {
				verdict = "TOO NOISY"
				complain("%s %s: %.6g and %.6g %s differ by %.1f%%, bound %.0f%%", w.name, m.name, a, b, m.unit, 100*dev, 100*m.bound)
			}
			fmt.Printf("    %-18s %12.6g %12.6g %-4s %5.1f%% of %2.0f%%  %s\n", m.name, a, b, m.unit, 100*dev, 100*m.bound, verdict)
		}
		for _, m := range layerMetrics {
			if !strings.HasPrefix(m.name, "store.") || !strings.HasSuffix(m.name, "_per_op") {
				continue
			}
			if a, b := traced[0].Metrics[m.name].Value, traced[1].Metrics[m.name].Value; a != b {
				complain("%s %s: %v and %v, an exact count must repeat", w.name, m.name, a, b)
			}
		}
		if w.name == "pvcd-mixed" {
			for _, name := range []string{"server.rejected", "server.degraded"} {
				for _, t := range traced {
					if v := t.Metrics[name].Value; v != 0 {
						complain("%s %s = %v, want 0", w.name, name, v)
					}
				}
			}
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d problems\n", bad)
		return 1
	}
	fmt.Println("selfcheck: ok")
	return 0
}

// runUpdate rewrites golden/<workload>.json with the digests of the
// exact ops at this seed. It runs the normal checks first: a golden is
// only written from answers the references agree with.
func runUpdate(ctx context.Context, seed int64, dir, goldenDir string) int {
	for _, w := range workloads {
		cfg := runConfig{seed: seed, seconds: 0, regolden: true, dataDir: filepath.Join(dir, "data", fmt.Sprintf("update-%s-%d", w.name, os.Getpid()))}
		rep, err := runMeasured(ctx, w, cfg)
		os.RemoveAll(cfg.dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if rep.failed > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: not writing a golden from failing ops:\n  %s\n", w.name, strings.Join(rep.failures, "\n  "))
			return 1
		}
		g := golden{Seed: seed, Digests: map[string]string{}}
		for i, o := range rep.ops {
			if o.exact {
				g.Digests[o.id] = rep.digests[i]
			}
		}
		b, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		path := filepath.Join(goldenDir, w.name+".json")
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("%s: %d digests\n", path, len(g.Digests))
	}
	return 0
}
