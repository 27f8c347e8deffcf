package main

import (
	"bytes"
	"encoding/csv"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadInput: a malformed invocation ends in an error
// naming the problem before anything is simulated or printed.
func TestRunRejectsBadInput(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "cpu.out")
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"unknown experiment", []string{"-exp", "fig99"}, "fig99"},
		{"cpuprofile in a missing directory", []string{"-exp", "table2", "-cpuprofile", missing}, "no-such-dir"},
		{"huge workers", []string{"-exp", "fig8a", "-workers", "4000000000000000000"}, "workers 4000000000000000000"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(c.args, &out)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("run(%q) = %v, want an error containing %q", c.args, err, c.want)
			}
			if out.Len() != 0 {
				t.Errorf("run(%q) printed %q before failing", c.args, out.String())
			}
		})
	}
}

// TestRunCSV: -csv output is a rectangular CSV table under a name,...
// header, for every static table (table 3's storage descriptions hold
// commas, so its fields must be quoted) and for a simulated experiment.
func TestRunCSV(t *testing.T) {
	for _, exp := range []string{"table2", "table3", "table4", "heap-pressure"} {
		t.Run(exp, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-exp", exp, "-csv"}, &out); err != nil {
				t.Fatal(err)
			}
			// The reader rejects a row whose field count differs from the
			// header's.
			rows, err := csv.NewReader(&out).ReadAll()
			if err != nil {
				t.Fatalf("-csv output does not parse as a rectangular table: %v", err)
			}
			if len(rows) < 2 || rows[0][0] != "name" {
				t.Errorf("-csv printed %d rows, the first %v; want a name,... header and at least one row", len(rows), rows[0])
			}
		})
	}
}
