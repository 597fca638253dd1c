package core

import (
	"fmt"
	"strings"
)

// Table is a printable result with aligned columns; ChainStats is its one
// producer (examples/datamarket prints it at the end of a run).
type Table struct {
	// Title names the table (e.g. "chain statistics").
	Title string
	// Header labels the columns.
	Header []string
	// Rows holds the measurements, already formatted.
	Rows [][]string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
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
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// ChainStats summarizes ledger shape after a scenario (diagnostic table).
func ChainStats(d *Deployment) *Table {
	t := &Table{
		Title:  "chain statistics",
		Header: []string{"metric", "value"},
	}
	node := d.Nodes[0]
	t.Add("height", node.Height())
	t.Add("state_keys", node.State().Len())
	t.Add("total_gas", node.Costs().TotalSpent())
	t.Add("oracle_in", d.Metrics.In.Load())
	t.Add("oracle_out", d.Metrics.Out.Load())
	return t
}
