// Command pvcimport builds a disk-backed pvc-database: it streams rows —
// from the TPC-H-shaped generator or from a CSV file — into the columnar
// block store that pvcrun/pvcd open with -store. Ingest is streaming end
// to end: no table is ever materialized in memory, so scale factors
// larger than RAM import in bounded space.
//
// Usage:
//
//	# generate TPC-H-shaped tables at scale factor 0.1:
//	pvcimport -out /data/tpch01 -gen tpch -sf 0.1 -seed 1
//
//	# the same with tuple-independent probabilistic fact tables:
//	pvcimport -out /data/tpch01p -gen tpch -sf 0.1 -seed 1 -prob -p 0.9
//
//	# import one CSV table (no header row) with an explicit schema:
//	pvcimport -out /data/db -csv items.csv -table items -schema "id:value,name:string,qty:value"
//
// The output directory must not already hold a committed store. The
// manifest is written last, atomically: a crash mid-import leaves a
// directory that OpenStore refuses, never a torn database.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/store"
	"pvcagg/internal/tpch"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

func main() {
	var (
		out      = flag.String("out", "", "output directory for the store (required)")
		gen      = flag.String("gen", "", "generate a dataset: tpch")
		sf       = flag.Float64("sf", 0.01, "TPC-H scale factor (-gen tpch)")
		seed     = flag.Int64("seed", 1, "generator seed (-gen tpch)")
		prob     = flag.Bool("prob", false, "annotate fact tables with fresh Boolean variables (-gen tpch)")
		p        = flag.Float64("p", 0.9, "tuple marginal probability (-prob)")
		csvPath  = flag.String("csv", "", "import one CSV file (no header row)")
		table    = flag.String("table", "", "table name for -csv")
		schema   = flag.String("schema", "", `schema for -csv: "col:value,col:string,..."`)
		semiring = flag.String("semiring", "boolean", "store semiring: boolean or natural")
		block    = flag.Int("block", store.DefaultBlockCapacity, "rows per block")
	)
	flag.Parse()
	if err := run(*out, *gen, *sf, *seed, *prob, *p, *csvPath, *table, *schema, *semiring, *block); err != nil {
		fmt.Fprintln(os.Stderr, "pvcimport:", err)
		os.Exit(1)
	}
}

// createStore starts the output store; tests swap it to inject faults
// through store.CreateFS.
var createStore = store.Create

func run(out, gen string, sf float64, seed int64, prob bool, p float64, csvPath, table, schemaSpec, semiring string, block int) error {
	if out == "" {
		return fmt.Errorf("-out is required")
	}
	if (gen == "") == (csvPath == "") {
		return fmt.Errorf("exactly one of -gen or -csv must be given")
	}
	if gen != "" && gen != "tpch" {
		return fmt.Errorf("unknown generator %q (tpch)", gen)
	}
	var schema pvc.Schema
	var csvFile *os.File
	if csvPath != "" {
		if table == "" {
			return fmt.Errorf("-csv requires -table")
		}
		var err error
		if schema, err = parseSchema(schemaSpec); err != nil {
			return err
		}
		if csvFile, err = os.Open(csvPath); err != nil {
			return err
		}
		defer csvFile.Close()
	}
	var kind algebra.SemiringKind
	switch semiring {
	case "boolean":
		kind = algebra.Boolean
	case "natural":
		kind = algebra.Natural
	default:
		return fmt.Errorf("unknown semiring %q (boolean or natural)", semiring)
	}

	// Every flag is valid and the input opens: only now does the output
	// directory appear.
	reg := vars.NewRegistry()
	w, err := createStore(out, kind, reg, store.Options{BlockCapacity: block})
	if err != nil {
		return err
	}
	if gen == "tpch" {
		cfg := tpch.Config{SF: sf, Seed: seed, Probabilistic: prob, TupleProb: p}
		if err := tpch.Stream(cfg, reg, &writerSink{w: w}); err != nil {
			return err
		}
	} else if err := importCSV(w, csvFile, table, schema); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	st, err := store.Open(out)
	if err != nil {
		return fmt.Errorf("post-import check: %w", err)
	}
	for _, name := range st.Names() {
		t, _ := st.Table(name)
		fmt.Printf("%-12s %10d rows  %6d blocks\n", name, t.Rows(), t.Blocks())
	}
	return nil
}

// writerSink streams generator output into the store writer.
type writerSink struct {
	w  *store.Writer
	tw *store.TableWriter
}

func (s *writerSink) Table(name string, schema pvc.Schema) error {
	tw, err := s.w.CreateTable(name, schema)
	if err != nil {
		return err
	}
	s.tw = tw
	return nil
}

func (s *writerSink) Row(ann expr.Expr, cells ...pvc.Cell) error {
	return s.tw.Append(ann, cells...)
}

// importCSV streams one headerless CSV file into a table, row by row.
func importCSV(w *store.Writer, f *os.File, table string, schema pvc.Schema) error {
	tw, err := w.CreateTable(table, schema)
	if err != nil {
		return err
	}
	r := csv.NewReader(f)
	r.FieldsPerRecord = len(schema)
	for line := 1; ; line++ {
		rec, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		cells := make([]pvc.Cell, len(schema))
		for i, field := range rec {
			if schema[i].Type == pvc.TString {
				cells[i] = pvc.StringCell(field)
				continue
			}
			v, err := value.Parse(strings.TrimSpace(field))
			if err != nil {
				return fmt.Errorf("%s line %d column %s: %w", f.Name(), line, schema[i].Name, err)
			}
			cells[i] = pvc.ValueCell(v)
		}
		if err := tw.Append(nil, cells...); err != nil {
			return err
		}
	}
}

// parseSchema parses "a:value,b:string" into a pvc.Schema.
func parseSchema(spec string) (pvc.Schema, error) {
	if spec == "" {
		return nil, fmt.Errorf("-csv requires -schema (e.g. \"id:value,name:string\")")
	}
	var out pvc.Schema
	for _, part := range strings.Split(spec, ",") {
		name, ty, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("schema entry %q is not name:type", part)
		}
		switch ty {
		case "value":
			out = append(out, pvc.Col{Name: name, Type: pvc.TValue})
		case "string":
			out = append(out, pvc.Col{Name: name, Type: pvc.TString})
		default:
			return nil, fmt.Errorf("schema entry %q: type must be value or string", part)
		}
	}
	return out, nil
}
