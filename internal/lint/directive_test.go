package lint

import "testing"

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text      string
		name, arg string
		ok        bool
	}{
		{"//sbwi:unordered keys are sorted before use", "unordered", "keys are sorted before use", true},
		{"//sbwi:alloc-ok", "alloc-ok", "", true},
		{"//sbwi:hotpath", "hotpath", "", true},
		{"// sbwi:unordered spaced marker is not a directive", "", "", false},
		{"// plain comment", "", "", false},
		{"//sbwi:", "", "", false},
	}
	for _, c := range cases {
		name, arg, ok := parseDirective(c.text)
		if name != c.name || arg != c.arg || ok != c.ok {
			t.Errorf("parseDirective(%q) = %q, %q, %v; want %q, %q, %v",
				c.text, name, arg, ok, c.name, c.arg, c.ok)
		}
	}
}

func TestDeterminismCritical(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"repro/internal/sm", true},
		{"repro/internal/sm_test", true}, // external test package variant
		{"repro/internal/device", true},
		{"repro/internal/mem", true},
		{"repro/internal/noc", true},
		{"repro/internal/exec", true},
		{"repro/internal/lint", false},
		{"repro/cmd/sbwi-bench", false},
		{"example.com/other/internal/sm", true},
		{"example.com/smells", false},
	}
	for _, c := range cases {
		if got := DeterminismCritical(c.path); got != c.want {
			t.Errorf("DeterminismCritical(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
