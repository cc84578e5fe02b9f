package bench

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// table is the one renderer behind every figure and sweep: a header
// and rows of already-formatted cells, printed as aligned text or as
// CSV. Header and row formats are comma-separated, one field per
// column, so a CSV header reads in the source exactly as it prints;
// text cells must not contain commas.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header string) *table {
	return &table{header: strings.Split(header, ",")}
}

// addf appends one row: format holds the cells' verbs, comma-separated.
func (t *table) addf(format string, args ...any) {
	t.rows = append(t.rows, strings.Split(fmt.Sprintf(format, args...), ","))
}

// text renders the table with right-aligned columns two spaces apart.
func (t *table) text() string {
	lines := append([][]string{t.header}, t.rows...)
	width := make([]int, len(t.header))
	for _, line := range lines {
		for i, cell := range line {
			if n := utf8.RuneCountInString(cell); n > width[i] {
				width[i] = n
			}
		}
	}
	var b strings.Builder
	for _, line := range lines {
		for i, cell := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// csv renders the table as comma-separated records, header first.
func (t *table) csv() string {
	var b strings.Builder
	for _, line := range append([][]string{t.header}, t.rows...) {
		b.WriteString(strings.Join(line, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
