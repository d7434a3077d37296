package pvcagg_test

import (
	"context"
	"os"
	"testing"

	"pvcagg"
	"pvcagg/internal/pvc"
	"pvcagg/internal/store"
	"pvcagg/internal/tpch"
	"pvcagg/internal/value"
)

// The store benchmark family measures the disk-backed scan path: raw
// block-decode throughput, the payoff of zone-map block skipping under a
// pushed-down selection, and Q1 as PVQL over a stored database.

// buildStoreDir streams the TPC-H generator into a fresh store directory.
func buildStoreDir(sf float64) (string, error) {
	dir, err := os.MkdirTemp("", "pvcagg-store-bench")
	if err != nil {
		return "", err
	}
	reg := pvcagg.NewRegistry()
	w, err := store.Create(dir, pvcagg.Boolean, reg, store.Options{})
	if err != nil {
		return "", err
	}
	var tw *store.TableWriter
	if err := tpch.Stream(tpch.Config{SF: sf, Seed: 1}, reg, storeSink{w, &tw}); err != nil {
		return "", err
	}
	return dir, w.Close()
}

// tpchQ1StorePVQL is TPC-H Q1 against the streamed store schema (the
// store's lineitem has extra columns, which π̂ prunes at the block reader
// so they are never decoded).
const tpchQ1StorePVQL = `SELECT l_returnflag, l_linestatus, COUNT(*) AS count_order
FROM lineitem WHERE l_shipdate <= 1200 GROUP BY l_returnflag, l_linestatus`

// BenchmarkStore runs the family at a small scale factor (CI's
// bench-smoke runs it once through).
func BenchmarkStore(b *testing.B) {
	dir, err := buildStoreDir(0.002)
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	tab, _ := st.Table("lineitem")
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := drainScan(tab, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("skip", func(b *testing.B) {
		cut := pvc.IntCell(600)
		hints := []pvc.ScanHint{{Col: 8, Th: value.LE, RightCol: -1, Cell: &cut}}
		for i := 0; i < b.N; i++ {
			if err := drainScan(tab, hints); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("q1", func(b *testing.B) {
		fst, err := pvcagg.OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			res, err := pvcagg.ExecQuery(context.Background(), nil, tpchQ1StorePVQL, pvcagg.WithStore(fst))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.Collect(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// drainScan streams one full (or hint-pruned) scan of a stored table.
func drainScan(tab *store.Table, hints []pvc.ScanHint) error {
	it, err := tab.NewScan(context.Background(), pvc.ScanOptions{Hints: hints, DropZero: hints != nil})
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		_, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}
