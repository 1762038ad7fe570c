// Package report renders experiment results as CSV, Markdown tables,
// and gnuplot scripts, so every figure the CLI regenerates can go
// straight into a terminal, a README, or a plot. One Table value feeds
// all three writers.
package report

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// NA is how missing values (false negatives, empty cells) are rendered.
const NA = "NA"

// ErrShape is returned when a row's width does not match the header.
var ErrShape = errors.New("report: row width does not match header")

// Table is a rectangular result set with named columns.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column names.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row of arbitrary values; floats are formatted with
// three decimals and NaN becomes NA.
func (t *Table) AddRow(values ...any) error {
	if len(values) != len(t.Columns) {
		return fmt.Errorf("%w: %d values for %d columns", ErrShape, len(values), len(t.Columns))
	}
	row := make([]string, len(values))
	for i, v := range values {
		row[i] = format(v)
	}
	t.rows = append(t.rows, row)
	return nil
}

func format(v any) string {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) {
			return NA
		}
		return fmt.Sprintf("%.3f", x)
	case float32:
		return format(float64(x))
	case string:
		return x
	case fmt.Stringer:
		return x.String()
	default:
		return fmt.Sprintf("%v", v)
	}
}

// WriteCSV renders the table as a comment header plus CSV rows.
func (t *Table) WriteCSV(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, strings.Join(escapeAll(row, csvEscape), ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteMarkdown renders the table as a GitHub-flavored Markdown table.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(escapeAll(t.Columns, mdEscape), " | ")); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | ")); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(escapeAll(row, mdEscape), " | ")); err != nil {
			return err
		}
	}
	return nil
}

// GnuplotSeries describes one plotted series for WriteGnuplot.
type GnuplotSeries struct {
	// XColumn and YColumn are column names of the table.
	XColumn, YColumn string
	// Label overrides the legend entry (default YColumn).
	Label string
}

// WriteGnuplot emits a self-contained gnuplot script with the data
// inlined ($data heredoc), plotting the given series as lines+points.
func (t *Table) WriteGnuplot(w io.Writer, series ...GnuplotSeries) error {
	if len(series) == 0 {
		return errors.New("report: no series to plot")
	}
	colIdx := make(map[string]int, len(t.Columns))
	for i, c := range t.Columns {
		colIdx[c] = i + 1 // gnuplot columns are 1-based
	}
	for _, s := range series {
		if _, ok := colIdx[s.XColumn]; !ok {
			return fmt.Errorf("report: unknown x column %q", s.XColumn)
		}
		if _, ok := colIdx[s.YColumn]; !ok {
			return fmt.Errorf("report: unknown y column %q", s.YColumn)
		}
	}

	fmt.Fprintf(w, "set title %q\n", t.Title)
	fmt.Fprintln(w, "set datafile missing \"NA\"")
	fmt.Fprintln(w, "set key outside")
	fmt.Fprintln(w, "$data << EOD")
	fmt.Fprintln(w, strings.Join(t.Columns, " "))
	for _, row := range t.rows {
		fmt.Fprintln(w, strings.Join(escapeAll(row, gnuplotEscape), " "))
	}
	fmt.Fprintln(w, "EOD")

	var plots []string
	for _, s := range series {
		label := s.Label
		if label == "" {
			label = s.YColumn
		}
		plots = append(plots, fmt.Sprintf("$data using %d:%d with linespoints title %q",
			colIdx[s.XColumn], colIdx[s.YColumn], label))
	}
	_, err := fmt.Fprintf(w, "plot %s\n", strings.Join(plots, ", \\\n     "))
	return err
}

func escapeAll(in []string, esc func(string) string) []string {
	out := make([]string, len(in))
	for i, s := range in {
		out[i] = esc(s)
	}
	return out
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func mdEscape(s string) string {
	return strings.ReplaceAll(s, "|", `\|`)
}

func gnuplotEscape(s string) string {
	return strings.ReplaceAll(s, " ", "_")
}
