package lint_test

import (
	"bytes"
	"go/token"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lint"
)

func diag(file string, line, col int, analyzer, msg string) lint.Diagnostic {
	return lint.Diagnostic{
		Pos:      token.Position{Filename: file, Line: line, Column: col},
		Analyzer: analyzer,
		Message:  msg,
	}
}

// TestJSONRoundTrip checks WriteJSON → ReadJSON preserves every wire
// field and imposes the canonical order regardless of input order.
func TestJSONRoundTrip(t *testing.T) {
	in := []lint.Diagnostic{
		diag("b.go", 10, 2, "goguard", "raw go statement in the device package"),
		diag("a.go", 3, 7, "mapiter", "map iteration in a determinism-critical package"),
		diag("a.go", 3, 7, "hotalloc", "allocation on the hot path"),
	}
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, in); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := lint.ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	want := []lint.Diagnostic{in[2], in[1], in[0]} // a.go hotalloc < a.go mapiter < b.go
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch\ngot:  %v\nwant: %v", got, want)
	}
}

// TestJSONStableOutput checks two permutations of the same findings
// serialize byte-identically — the property CI diffing relies on.
func TestJSONStableOutput(t *testing.T) {
	a := diag("x.go", 1, 1, "walltime", "wall clock in simulation core")
	b := diag("x.go", 5, 1, "goguard", "goroutine must run under the panic guard")
	var fwd, rev bytes.Buffer
	if err := lint.WriteJSON(&fwd, []lint.Diagnostic{a, b}); err != nil {
		t.Fatal(err)
	}
	if err := lint.WriteJSON(&rev, []lint.Diagnostic{b, a}); err != nil {
		t.Fatal(err)
	}
	if fwd.String() != rev.String() {
		t.Errorf("output depends on input order:\n%s\nvs\n%s", fwd.String(), rev.String())
	}
}

// TestJSONEmpty checks no findings encode as an empty array, not
// null — consumers iterate without a nil check.
func TestJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if s := strings.TrimSpace(buf.String()); s != "[]" {
		t.Errorf("empty findings encode as %q, want []", s)
	}
	got, err := lint.ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("decoded %d findings from empty array", len(got))
	}
}
