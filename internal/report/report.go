// Package report renders experiment results as aligned text tables
// and CSV — the shared presentation layer of cmd/figures and the
// examples. Keeping it mechanical and dependency-free means the
// experiment packages stay about measurements, not formatting.
package report

import (
	"fmt"
	"strings"
)

// Align selects a column's justification.
type Align int

const (
	// Left-justified (names, labels).
	Left Align = iota
	// Right-justified (numbers).
	Right
)

// Column defines one table column.
type Column struct {
	Header string
	Align  Align
}

// Table accumulates rows for aligned rendering.
type Table struct {
	cols []Column
	rows [][]string
}

// NewTable creates a table with the given columns.
func NewTable(cols ...Column) *Table {
	return &Table{cols: cols}
}

// Row appends one row; values are formatted with %v, or with %.3f
// for floats (use Cell for custom formatting).
func (t *Table) Row(values ...any) *Table {
	if len(values) != len(t.cols) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns", len(values), len(t.cols)))
	}
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", x)
		case float32:
			row[i] = fmt.Sprintf("%.3f", x)
		case string:
			row[i] = x
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// Cell formats a value explicitly for Row.
func Cell(format string, v ...any) string { return fmt.Sprintf(format, v...) }

// String renders the aligned table.
func (t *Table) String() string {
	widths := make([]int, len(t.cols))
	for i, c := range t.cols {
		widths[i] = len(c.Header)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - len(cell)
			if t.cols[i].Align == Right {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(cell)
			} else {
				b.WriteString(cell)
				if i < len(cells)-1 {
					b.WriteString(strings.Repeat(" ", pad))
				}
			}
		}
		b.WriteByte('\n')
	}
	headers := make([]string, len(t.cols))
	for i, c := range t.cols {
		headers[i] = c.Header
	}
	writeRow(headers)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
// Cells containing commas or quotes are quoted per RFC 4180.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(cell, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	headers := make([]string, len(t.cols))
	for i, c := range t.cols {
		headers[i] = strings.ToLower(strings.ReplaceAll(c.Header, " ", "_"))
	}
	writeRow(headers)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
