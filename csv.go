package quickr

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"quickr/internal/table"
)

// LoadCSV creates table name from CSV data with a header row, inferring
// or checking columns against cols (pass nil to take names from the
// header and infer types from the first data row: integers, floats,
// booleans, strings). It converts every record before it creates the
// table, so a record that does not parse leaves no table behind; the
// rows then land as Insert's do, round-robin over parts partitions. It
// returns the number of rows loaded.
func (e *Engine) LoadCSV(name string, r io.Reader, cols []Column, parts int) (int, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("quickr: reading CSV header: %w", err)
	}
	header = append([]string{}, header...)

	var rows []table.Row
	convert := func(rec []string) error {
		row := make(table.Row, len(cols))
		for i, field := range rec {
			v, err := parseValue(field, cols[i].Type)
			if err != nil {
				return fmt.Errorf("quickr: row %d column %s: %w", len(rows)+1, cols[i].Name, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
		return nil
	}
	if cols == nil {
		rec, err := cr.Read()
		if err == io.EOF {
			return 0, fmt.Errorf("quickr: cannot infer column types from an empty CSV")
		}
		if err != nil {
			return 0, err
		}
		cols = make([]Column, len(header))
		for i, h := range header {
			cols[i] = Column{Name: h, Type: inferColType(rec[i])}
		}
		if err := convert(rec); err != nil {
			return 0, err
		}
	} else if len(cols) != len(header) {
		return 0, fmt.Errorf("quickr: CSV has %d columns, schema expects %d", len(header), len(cols))
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if err := convert(rec); err != nil {
			return 0, err
		}
	}

	if err := e.CreateTable(name, cols, parts); err != nil {
		return 0, err
	}
	tbl, err := e.cat.Table(name)
	if err != nil {
		return 0, err
	}
	e.appendRows(tbl, rows)
	return len(rows), nil
}

func inferColType(field string) ColType {
	if _, err := strconv.ParseInt(field, 10, 64); err == nil {
		return Int
	}
	if _, err := strconv.ParseFloat(field, 64); err == nil {
		return Float
	}
	switch strings.ToLower(field) {
	case "true", "false":
		return Bool
	}
	return String
}

func parseValue(field string, t ColType) (table.Value, error) {
	if field == "" || strings.EqualFold(field, "null") {
		return table.Null, nil
	}
	switch t {
	case Int:
		n, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return table.Value{}, err
		}
		return table.NewInt(n), nil
	case Float:
		f, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return table.Value{}, err
		}
		return table.NewFloat(f), nil
	case Bool:
		b, err := strconv.ParseBool(strings.ToLower(field))
		if err != nil {
			return table.Value{}, err
		}
		return table.NewBool(b), nil
	default:
		return table.NewString(field), nil
	}
}
