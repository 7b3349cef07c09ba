// Package metrics holds the result-table representation shared by the
// experiment harness, the bench targets, and the CLI tools: simple tables
// with aligned text rendering, plus the geometric-mean helper the paper uses
// for its summary bars (GMEAN in Figures 9, 12, 13). It also writes the
// Prometheus text exposition the serving stack renders from its Stats
// snapshots (Write).
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Table is one reproduced paper artifact: a title, column headers, and rows.
type Table struct {
	ID    string
	Title string
	Note  string
	Cols  []string
	Rows  [][]string
}

// NewTable constructs a table with the given identity and columns.
func NewTable(id, title string, cols ...string) *Table {
	return &Table{ID: id, Title: title, Cols: cols}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Cols)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// Geomean returns the geometric mean of the values, ignoring non-positive
// entries (missing data points, like the paper's absent LMS bars).
func Geomean(vals []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Ratio returns a/b guarding against division by zero.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
