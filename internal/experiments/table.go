package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"commguard/internal/viz"
)

// A layout prints a figure's rows as its stdout table: the title, then
// per block (consecutive rows sharing a block heading) the heading, the
// column header and the lines. Within a block, rows whose line labels
// match share one line, a cell per row in row order, optionally closed by
// a sparkline of the cells.
type layout[R any] struct {
	title, head string
	block       func(R) string // nil: one block without a heading
	line, cell  func(R) string
	spark       func(R) float64
}

func (l layout[R]) print(w io.Writer, rows []R) {
	type line struct {
		text string
		vals []float64
	}
	type block struct {
		name  string
		lines []*line
		index map[string]*line
	}
	var blocks []*block
	for _, r := range rows {
		name := ""
		if l.block != nil {
			name = l.block(r)
		}
		if len(blocks) == 0 || blocks[len(blocks)-1].name != name {
			blocks = append(blocks, &block{name: name, index: map[string]*line{}})
		}
		b := blocks[len(blocks)-1]
		label := l.line(r)
		ln := b.index[label]
		if ln == nil {
			ln = &line{text: label}
			b.index[label] = ln
			b.lines = append(b.lines, ln)
		}
		ln.text += l.cell(r)
		if l.spark != nil {
			ln.vals = append(ln.vals, l.spark(r))
		}
	}
	fmt.Fprintln(w, l.title)
	for _, b := range blocks {
		if b.name != "" {
			fmt.Fprintln(w, b.name)
		}
		fmt.Fprintln(w, l.head)
		for _, ln := range b.lines {
			if l.spark != nil {
				ln.text += "  " + viz.Sparkline(ln.vals)
			}
			fmt.Fprintln(w, ln.text)
		}
	}
}

// heads renders one column header per name: format takes the name, then
// the shared extra labels.
func heads(format string, names []string, extra ...any) string {
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, format, append([]any{n}, extra...)...)
	}
	return sb.String()
}

// A report is a figure's flat data: one CSV file and one Markdown
// section, a line per row of the figure's results.
type report[R any] struct {
	rows    func(a *AllResults) []R
	file    string
	cols    []string
	csv     func(R) []string
	section string
	mdHead  string // Markdown table header; "" renders rows as paragraphs
	md      func(R) string
}

// rendered is a report applied to one figure's rows.
type rendered struct {
	file, section, mdHead string
	cols                  []string
	csvRows               [][]string
	mdRows                []string
}

func (r report[R]) render(a *AllResults) *rendered {
	rows := r.rows(a)
	if rows == nil {
		return nil
	}
	out := &rendered{file: r.file, section: r.section, mdHead: r.mdHead, cols: r.cols}
	for _, row := range rows {
		out.csvRows = append(out.csvRows, r.csv(row))
		out.mdRows = append(out.mdRows, r.md(row))
	}
	return out
}

// WriteCSV writes each regenerated figure's data as a CSV file under dir,
// one file per figure, so the results can be replotted with any tool.
func WriteCSV(dir string, all *AllResults) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, fig := range figures {
		if t := fig.report.render(all); t != nil {
			if err := writeCSVFile(filepath.Join(dir, t.file), t.cols, t.csvRows); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCSVFile(path string, header []string, rows [][]string) error {
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fd.Close()
	w := csv.NewWriter(fd)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

// WriteMarkdown renders the regenerated figures as a Markdown report.
func WriteMarkdown(w io.Writer, all *AllResults) error {
	fmt.Fprint(w, "# CommGuard regenerated results\n\n")
	for _, fig := range figures {
		t := fig.report.render(all)
		if t == nil {
			continue
		}
		fmt.Fprintf(w, "## %s\n\n", t.section)
		if t.mdHead != "" {
			fmt.Fprintf(w, "%s\n|%s\n", t.mdHead, strings.Repeat("---|", strings.Count(t.mdHead, "|")-1))
		}
		for _, row := range t.mdRows {
			fmt.Fprintln(w, row)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// f formats a float for CSV, mapping infinities to the string "inf".
func f(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	if math.IsInf(v, -1) {
		return "-inf"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
