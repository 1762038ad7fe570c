package report

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func sampleTable(t *testing.T) *Table {
	t.Helper()
	tb := NewTable("Localization error", "step", "err", "fp")
	if err := tb.AddRow(0, 5.25, 2); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddRow(1, math.NaN(), 1); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddRow(2, 1.0, 0); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestAddRowShapeError(t *testing.T) {
	tb := NewTable("t", "a", "b")
	if err := tb.AddRow(1); !errors.Is(err, ErrShape) {
		t.Errorf("short row: %v", err)
	}
	if err := tb.AddRow(1, 2, 3); !errors.Is(err, ErrShape) {
		t.Errorf("long row: %v", err)
	}
}

func TestFormatVariants(t *testing.T) {
	tb := NewTable("t", "c")
	_ = tb.AddRow(float32(2.5))
	_ = tb.AddRow("text")
	_ = tb.AddRow(42)
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if want := "# t\nc\n2.500\ntext\n42\n"; b.String() != want {
		t.Errorf("CSV = %q, want %q (float32, string, int)", b.String(), want)
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	if err := sampleTable(t).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := "# Localization error\nstep,err,fp\n0,5.250,2\n1,NA,1\n2,1.000,0\n"
	if out != want {
		t.Errorf("CSV:\n%q\nwant:\n%q", out, want)
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := NewTable("", "name")
	_ = tb.AddRow(`a,"b"`)
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"a,""b"""`) {
		t.Errorf("escaping wrong: %q", b.String())
	}
}

func TestWriteMarkdown(t *testing.T) {
	var b strings.Builder
	if err := sampleTable(t).WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "### Localization error") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "| step | err | fp |") {
		t.Error("header row wrong")
	}
	if !strings.Contains(out, "| --- | --- | --- |") {
		t.Error("separator missing")
	}
	if !strings.Contains(out, "| 1 | NA | 1 |") {
		t.Error("NA row missing")
	}
}

func TestMarkdownEscapesPipes(t *testing.T) {
	tb := NewTable("", "c")
	_ = tb.AddRow("a|b")
	var b strings.Builder
	if err := tb.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `a\|b`) {
		t.Errorf("pipe not escaped: %q", b.String())
	}
}

func TestWriteGnuplot(t *testing.T) {
	var b strings.Builder
	err := sampleTable(t).WriteGnuplot(&b,
		GnuplotSeries{XColumn: "step", YColumn: "err", Label: "error"},
		GnuplotSeries{XColumn: "step", YColumn: "fp"},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`set datafile missing "NA"`,
		"$data << EOD",
		"using 1:2 with linespoints title \"error\"",
		"using 1:3 with linespoints title \"fp\"",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("gnuplot missing %q:\n%s", want, out)
		}
	}
}

func TestWriteGnuplotErrors(t *testing.T) {
	tb := sampleTable(t)
	var b strings.Builder
	if err := tb.WriteGnuplot(&b); err == nil {
		t.Error("no series accepted")
	}
	if err := tb.WriteGnuplot(&b, GnuplotSeries{XColumn: "nope", YColumn: "err"}); err == nil {
		t.Error("unknown x column accepted")
	}
	if err := tb.WriteGnuplot(&b, GnuplotSeries{XColumn: "step", YColumn: "nope"}); err == nil {
		t.Error("unknown y column accepted")
	}
}
