package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sbwi "repro"
)

// captureRun calls run(args) with os.Stdout redirected to a file and
// returns what it printed.
func captureRun(t *testing.T, args []string) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	runErr := run(args)
	os.Stdout = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestRunRejectsBadInput: every malformed invocation a user can type
// ends in an error naming the problem, never a panic or a result.
func TestRunRejectsBadInput(t *testing.T) {
	asm := filepath.Join(t.TempDir(), "k.asm")
	if err := os.WriteFile(asm, []byte("exit\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tooManyParams := []string{"-file", asm}
	for i := 0; i < 17; i++ {
		tooManyParams = append(tooManyParams, "-param", "1")
	}
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"unknown kernel", []string{"-kernel", "NoSuchKernel"}, `unknown kernel "NoSuchKernel"`},
		{"unknown arch", []string{"-kernel", "Transpose", "-arch", "Volta"}, `unknown architecture "Volta"`},
		{"negative noc bandwidth", []string{"-kernel", "Transpose", "-noc-bw", "-1"}, "port bandwidth must be positive"},
		// Used to run the flat model, a wrapped clock or a panicking or
		// endless SM and slot allocation instead of failing.
		{"NaN noc bandwidth", []string{"-kernel", "Transpose", "-noc-bw", "NaN"}, "port bandwidth must be positive and finite"},
		{"tiny noc bandwidth", []string{"-kernel", "Transpose", "-noc-bw", "1e-300"}, "bandwidth 1e-300 bytes/cycle must be positive"},
		{"huge noc latency", []string{"-kernel", "Transpose", "-noc-lat", "9223372036854775807"}, "latency 9223372036854775807 outside"},
		{"huge workers", []string{"-kernel", "Transpose", "-workers", "4000000000000000000"}, "worker count 4000000000000000000 above"},
		{"huge sms", []string{"-kernel", "Transpose", "-sms", "4000000000000000000", "-partition"}, "SM count 4000000000000000000 outside"},
		{"huge sms with l2", []string{"-kernel", "Transpose", "-sms", "100000000000", "-partition", "-l2"}, "SM count 100000000000 outside"},
		{"17 params", tooManyParams, "17 -param flags exceed"},
		{"negative grid", []string{"-file", asm, "-grid", "-1"}, "grid -1 x block 256 invalid"},
		{"zero grid", []string{"-file", asm, "-grid", "0"}, "grid 0 x block 256 invalid"},
		{"negative global", []string{"-file", asm, "-global", "-1"}, "-global -1: size must be non-negative"},
		{"global above 4 GiB", []string{"-file", asm, "-global", "4294967297"}, "-global 4294967297: size exceeds the 4 GiB"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := captureRun(t, c.args)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("run(%q) = %v, want an error containing %q", c.args, err, c.want)
			}
		})
	}
}

// TestRunJSONReport pins the -json schema: one report per architecture,
// and its stats survive a trip through encoding/json unchanged.
func TestRunJSONReport(t *testing.T) {
	out, err := captureRun(t, []string{"-kernel", "Transpose", "-json"})
	if err != nil {
		t.Fatal(err)
	}
	var reports []runReport
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("output is not a report list: %v\n%s", err, out)
	}
	if len(reports) != 1 {
		t.Fatalf("%d reports, want 1", len(reports))
	}
	r := reports[0]
	if r.Kernel != "Transpose" || r.Arch != "SBI+SWI" || r.SMs != 1 || r.Error != "" {
		t.Errorf("report header = %+v", r)
	}
	if r.Stats == nil || r.Stats.Cycles <= 0 || r.IPC != r.Stats.IPC() {
		t.Fatalf("stats = %+v, ipc %g; want a completed run whose ipc matches its stats", r.Stats, r.IPC)
	}
	again, err := json.Marshal(r.Stats)
	if err != nil {
		t.Fatal(err)
	}
	var back sbwi.Stats
	if err := json.Unmarshal(again, &back); err != nil {
		t.Fatal(err)
	}
	if back != *r.Stats {
		t.Errorf("stats changed across a JSON round trip:\n got %+v\nwant %+v", back, *r.Stats)
	}
}
