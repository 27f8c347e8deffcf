package sbwi

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/sm"
)

const scaleSrc = `
	mov  r1, %tid
	mov  r2, %ctaid
	mov  r3, %ntid
	imad r4, r2, r3, r1
	shl  r5, r4, 2
	mov  r6, %p0
	iadd r6, r6, r5
	ld.g r7, [r6]
	imul r7, r7, 3
	st.g [r6], r7
	exit
`

func TestQuickstartFlow(t *testing.T) {
	prog, err := Assemble("scale", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := ThreadFrontier(prog)
	if err != nil {
		t.Fatal(err)
	}
	global := make([]byte, 4*256*4)
	for i := range global {
		global[i] = byte(i)
	}
	dev, err := NewDevice(WithArch(SBISWI))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLaunch(tf, 4, 256, global, 0)
	res, err := dev.Run(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IPC() <= 0 {
		t.Errorf("IPC = %f", res.Stats.IPC())
	}
}

func TestNewLaunchRejectsExcessParams(t *testing.T) {
	prog, err := Assemble("scale", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	params := make([]uint32, 17)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewLaunch must panic on more than 16 params instead of dropping them")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "17 kernel parameters") {
			t.Errorf("panic message = %v", r)
		}
	}()
	NewLaunch(prog, 1, 32, nil, params...)
}

func TestNewLaunchKeepsAllParams(t *testing.T) {
	prog, err := Assemble("scale", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	params := make([]uint32, 16)
	for i := range params {
		params[i] = uint32(i + 1)
	}
	l := NewLaunch(prog, 1, 32, nil, params...)
	for i, v := range params {
		if l.Params[i] != v {
			t.Errorf("param %d = %d, want %d", i, l.Params[i], v)
		}
	}
}

func TestVerifyAcrossArchitectures(t *testing.T) {
	prog, err := Assemble("scale", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := ThreadFrontier(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Architectures() {
		p := tf
		if a == Baseline {
			p = prog
		}
		global := make([]byte, 2*256*4)
		for i := range global {
			global[i] = byte(i * 3)
		}
		l := NewLaunch(p, 2, 256, global, 0)
		if err := Verify(l, WithArch(a)); err != nil {
			t.Errorf("%v: %v", a, err)
		}
	}
}

func TestVerifyCatchesBadKernel(t *testing.T) {
	// A racy kernel whose outcome depends on warp interleaving: every
	// thread writes its gid to word 0. The reference (32-wide, serial
	// warp order) and a 64-wide machine disagree.
	src := `
	mov  r1, %tid
	mov  r2, %ctaid
	mov  r3, %ntid
	imad r4, r2, r3, r1
	mov  r5, %p0
	st.g [r5], r4
	exit
`
	prog, err := Assemble("racy", src)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := ThreadFrontier(prog)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLaunch(tf, 4, 256, make([]byte, 64), 0)
	// The race may or may not produce a difference, but Verify must
	// never panic and must accept a deterministic single-thread launch.
	_ = Verify(l, WithArch(SWI))

	one := NewLaunch(tf, 1, 1, make([]byte, 64), 0)
	if err := Verify(one, WithArch(SWI)); err != nil {
		t.Errorf("single-thread launch must verify: %v", err)
	}
}

func TestBenchmarksExposed(t *testing.T) {
	// The paper's 21 kernels plus the synthetic WriteStorm anchor.
	if len(Benchmarks()) != 22 {
		t.Errorf("suite size = %d", len(Benchmarks()))
	}
	b, ok := BenchmarkByName("MatrixMul")
	if !ok {
		t.Fatal("MatrixMul missing")
	}
	l, err := b.NewLaunch(true)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(WithArch(SWI))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dev.Run(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IPC() <= 0 {
		t.Error("no work simulated")
	}
}

func TestExperimentsExposed(t *testing.T) {
	names := ExperimentNames()
	if len(names) != 13 { // 5 figures + 3 tables + 4 ablations + memory-hierarchy
		t.Errorf("experiments = %v", names)
	}
	r := NewExperiments()
	tab, err := r.Run("table4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.Text(), "Overhead") {
		t.Error("table4 text incomplete")
	}
}

func TestAssembleErrors(t *testing.T) {
	if _, err := Assemble("bad", "floop r1, r2\nexit"); err == nil {
		t.Error("unknown mnemonic must fail")
	}
	if _, err := Assemble("empty", ""); err == nil {
		t.Error("empty program must fail")
	}
}

func TestTraceFromFacade(t *testing.T) {
	prog, err := Assemble("scale", scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	tf, _ := ThreadFrontier(prog)
	sbi, err := NewDevice(WithArch(SBI))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sbi.Config()
	cfg.TraceCap = 32
	dev, err := NewDevice(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLaunch(tf, 1, 64, make([]byte, 64*4), 0)
	res, err := dev.Run(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Events) == 0 {
		t.Fatal("no trace")
	}
	if res.Trace.Lanes(64) == "" {
		t.Error("empty lane rendering")
	}
}

// TestMalformedProgramIsTypedError pins the three hand-built programs
// that used to reach a panic (index out of range [255] in the register
// file, "EvalALU called for op(200)") on every entry point that takes a
// Launch: each now fails validation with a *ProgramError at the
// offending PC.
func TestMalformedProgramIsTypedError(t *testing.T) {
	exit := isa.Instruction{Op: isa.OpExit}
	nop := isa.Instruction{Op: isa.OpNop}
	cases := []struct {
		name   string
		ins    isa.Instruction
		shared int
		pc     int
		reason string
	}{
		{"alu-without-destination", isa.Instruction{Op: isa.OpIAdd, Dst: isa.RegNone, SrcA: 1, SrcB: 2}, 0, 1, "destination"},
		{"store-without-data", isa.Instruction{Op: isa.OpStG, SrcA: 1, SrcC: isa.RegNone}, 0, 1, "store data"},
		{"unknown-opcode", isa.Instruction{Op: isa.Opcode(200), Dst: 0, SrcA: 1, SrcB: 2}, 0, 1, "opcode"},
		// Used to panic in makeslice, or exhaust memory sizing the block's
		// shared image.
		{"negative-shared", nop, -4, -1, "shared memory"},
		{"oversized-shared", nop, 99999999999, -1, "shared memory"},
	}
	dev, err := NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		prog := &Program{Name: c.name, Code: []isa.Instruction{nop, c.ins, exit}, SharedMem: c.shared}
		entries := map[string]func(l *Launch) error{
			"RunReference": func(l *Launch) error { return RunReference(l, 32) },
			"sm.Run":       func(l *Launch) error { _, err := sm.Run(sm.Configure(sm.ArchSBISWI), l); return err },
			"Device.Run":   func(l *Launch) error { _, err := dev.Run(context.Background(), l); return err },
		}
		for entry, run := range entries {
			err := run(NewLaunch(prog, 1, 32, make([]byte, 256)))
			var pe *ProgramError
			if !errors.As(err, &pe) {
				t.Errorf("%s/%s: error %v (%T), want a *ProgramError", c.name, entry, err, err)
				continue
			}
			if pe.PC != c.pc || !strings.Contains(pe.Reason, c.reason) {
				t.Errorf("%s/%s: %v, want pc %d and a reason naming the %s", c.name, entry, pe, c.pc, c.reason)
			}
		}
	}

	// A launch that is not there, names no program or has no grid used
	// to panic on the caller's goroutine (a nil dereference in
	// Stream.Launch). Each is a plain error on every door, and one that
	// leaves the stream usable.
	ctx := context.Background()
	good := &Program{Name: "good", Code: []isa.Instruction{exit}}
	stream := dev.NewStream()
	for name, l := range map[string]*Launch{
		"nil":           nil,
		"empty":         {},
		"negative-grid": NewLaunch(good, -1, 32, nil),
	} {
		if _, err := dev.Run(ctx, l); err == nil {
			t.Errorf("Run(%s launch) succeeded, want an error", name)
		}
		if _, err := stream.Launch(ctx, l).Wait(); err == nil {
			t.Errorf("Stream.Launch(%s launch) succeeded, want an error", name)
		}
	}
	if _, err := stream.Launch(ctx, NewLaunch(good, 1, 32, nil)).Wait(); err != nil {
		t.Errorf("a launch behind three rejected ones failed: %v — a bad argument must not poison the stream", err)
	}
}
