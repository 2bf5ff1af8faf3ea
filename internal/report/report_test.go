package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := NewTable(
		Column{Header: "model", Align: Left},
		Column{Header: "params", Align: Right},
		Column{Header: "seq/s", Align: Right},
	)
	t.Row("lenet", 61706, 123.456)
	t.Row("gpt2-xl", 1638019200, 4.2)
	return t
}

func TestTableAlignment(t *testing.T) {
	out := sample().String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Right-aligned numeric column: digits end at the same offset.
	if !strings.HasSuffix(lines[1], "123.456") || !strings.HasSuffix(lines[2], "4.200") {
		t.Fatalf("numeric alignment wrong:\n%s", out)
	}
	if !strings.HasPrefix(lines[1], "lenet") {
		t.Fatalf("left alignment wrong:\n%s", out)
	}
	// All lines align on the params column's right edge.
	p1 := strings.Index(lines[1], "61706") + len("61706")
	p2 := strings.Index(lines[2], "1638019200") + len("1638019200")
	if p1 != p2 {
		t.Fatalf("params column ragged (%d vs %d):\n%s", p1, p2, out)
	}
}

func TestTableCSV(t *testing.T) {
	csv := sample().CSV()
	if !strings.HasPrefix(csv, "model,params,seq/s\n") {
		t.Fatalf("csv header: %q", csv)
	}
	if !strings.Contains(csv, "lenet,61706,123.456") {
		t.Fatalf("csv body: %q", csv)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := NewTable(Column{Header: "a"}, Column{Header: "b"})
	tb.Row(`with,comma`, `with"quote`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"with,comma","with""quote"`) {
		t.Fatalf("quoting wrong: %q", csv)
	}
}

func TestRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable(Column{Header: "x"}).Row(1, 2)
}

func TestCellAndRows(t *testing.T) {
	tb := NewTable(Column{Header: "v", Align: Right})
	tb.Row(Cell("%.1f%%", 12.345))
	if !strings.Contains(tb.String(), "12.3%") {
		t.Fatalf("cell formatting: %q", tb.String())
	}
}
