// Command dsgen generates the bundled synthetic datasets and writes
// them as CSV files (one file per table), for inspection or for loading
// into other systems.
//
// Usage:
//
//	dsgen [-schema tpcds|tpch|logs] [-sf 1] [-out ./data]
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"quickr/internal/data"
	"quickr/internal/table"
)

func main() {
	schema := flag.String("schema", "tpcds", "which schema to generate: tpcds, tpch or logs")
	sf := flag.Float64("sf", 1, "scale factor")
	out := flag.String("out", "./data", "output directory")
	rows := flag.Int("rows", 100000, "row count for -schema logs")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	var tables map[string]*table.Table
	switch *schema {
	case "tpcds":
		cfg := data.DefaultTPCDS()
		cfg.ScaleFactor = *sf
		tables = data.GenerateTPCDS(cfg).Tables
	case "tpch":
		cfg := data.DefaultTPCH()
		cfg.ScaleFactor = *sf
		tables = data.GenerateTPCH(cfg).Tables
	case "logs":
		t := data.Logs(*rows, 777, 8)
		tables = map[string]*table.Table{t.Name: t}
	default:
		fatal(fmt.Errorf("unknown schema %q", *schema))
	}

	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		t := tables[name]
		path := filepath.Join(*out, name+".csv")
		if err := writeCSV(path, t); err != nil {
			fatal(err)
		}
		fmt.Printf("%-20s %8d rows -> %s\n", name, t.NumRows(), path)
	}
}

func writeCSV(path string, t *table.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(t.Schema.Names()); err != nil {
		return err
	}
	rec := make([]string, t.Schema.Len())
	for p := range t.Partitions {
		for _, row := range t.Rows(p) {
			for i, v := range row {
				rec[i] = v.String()
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	w.Flush()
	return w.Error()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsgen:", err)
	os.Exit(1)
}
