package asm

import (
	"math"
	"strings"
	"testing"

	"repro/internal/isa"
)

func mustAsm(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := Assemble("test", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

func TestAssembleBasic(t *testing.T) {
	p := mustAsm(t, `
.kernel demo
.shared 256
entry:
    mov  r0, %tid
    mov  r1, 42
    iadd r2, r0, r1
    exit
`)
	if p.Name != "demo" {
		t.Errorf("name = %q", p.Name)
	}
	if p.SharedMem != 256 {
		t.Errorf("shared = %d", p.SharedMem)
	}
	if len(p.Code) != 4 {
		t.Fatalf("len = %d", len(p.Code))
	}
	if p.Labels["entry"] != 0 {
		t.Errorf("entry label = %d", p.Labels["entry"])
	}
	if p.Code[0].Op != isa.OpMov || p.Code[0].Spec != isa.SpecTid {
		t.Errorf("insn 0 = %+v", p.Code[0])
	}
	if p.Code[1].Op != isa.OpMov || !p.Code[1].HasImm || p.Code[1].Imm != 42 {
		t.Errorf("insn 1 = %+v", p.Code[1])
	}
	if p.Code[2].Op != isa.OpIAdd || p.Code[2].Dst != 2 || p.Code[2].SrcA != 0 || p.Code[2].SrcB != 1 {
		t.Errorf("insn 2 = %+v", p.Code[2])
	}
}

func TestAssembleBranchesAndLabels(t *testing.T) {
	p := mustAsm(t, `
    mov r0, 0
loop:
    iadd r0, r0, 1
    isetp.lt r1, r0, 10
    bra r1, loop
    bra done
done:
    exit
`)
	loopPC := p.Labels["loop"]
	if loopPC != 1 {
		t.Fatalf("loop pc = %d", loopPC)
	}
	bra := p.Code[3]
	if bra.Op != isa.OpBra || bra.SrcA != 1 || bra.Target != loopPC {
		t.Errorf("cond bra = %+v", bra)
	}
	ub := p.Code[4]
	if ub.SrcA != isa.RegNone || ub.Target != p.Labels["done"] {
		t.Errorf("uncond bra = %+v", ub)
	}
	setp := p.Code[2]
	if setp.Op != isa.OpISetp || setp.Cmp != isa.CmpLT || !setp.HasImm || setp.Imm != 10 {
		t.Errorf("isetp = %+v", setp)
	}
}

func TestAssembleMemoryOperands(t *testing.T) {
	p := mustAsm(t, `
    ld.g r1, [r2]
    ld.g r1, [r2+16]
    ld.g r1, [ r2 + 8 ]
    st.g [r3-4], r1
    ld.s r4, [r5+0x10]
    st.s [r5], r4
    exit
`)
	if p.Code[0].SrcA != 2 || p.Code[0].Imm != 0 {
		t.Errorf("plain: %+v", p.Code[0])
	}
	if p.Code[1].Imm != 16 {
		t.Errorf("offset: %+v", p.Code[1])
	}
	if p.Code[2].Imm != 8 {
		t.Errorf("spaced offset: %+v", p.Code[2])
	}
	if int32(p.Code[3].Imm) != -4 || p.Code[3].SrcC != 1 || p.Code[3].SrcA != 3 {
		t.Errorf("store: %+v", p.Code[3])
	}
	if p.Code[4].Op != isa.OpLdS || p.Code[4].Imm != 0x10 {
		t.Errorf("shared ld: %+v", p.Code[4])
	}
	if p.Code[5].Op != isa.OpStS {
		t.Errorf("shared st: %+v", p.Code[5])
	}
}

func TestAssembleFloatImmediate(t *testing.T) {
	p := mustAsm(t, `
    mov r0, 1.5
    fmul r1, r0, 2.0
    fadd r2, r1, -0.25
    exit
`)
	if p.Code[0].Imm != math.Float32bits(1.5) {
		t.Errorf("1.5 bits = %#x", p.Code[0].Imm)
	}
	if p.Code[1].Imm != math.Float32bits(2.0) {
		t.Errorf("2.0 bits = %#x", p.Code[1].Imm)
	}
	if p.Code[2].Imm != math.Float32bits(-0.25) {
		t.Errorf("-0.25 bits = %#x", p.Code[2].Imm)
	}
}

func TestAssembleParamsAndSpecials(t *testing.T) {
	p := mustAsm(t, `
    mov r0, %p0
    mov r1, %p15
    mov r2, %ntid
    mov r3, %ctaid
    mov r4, %ncta
    exit
`)
	if i, ok := p.Code[0].Spec.IsParam(); !ok || i != 0 {
		t.Errorf("p0: %+v", p.Code[0])
	}
	if i, ok := p.Code[1].Spec.IsParam(); !ok || i != 15 {
		t.Errorf("p15: %+v", p.Code[1])
	}
	if p.Code[2].Spec != isa.SpecNTid || p.Code[3].Spec != isa.SpecCtaid || p.Code[4].Spec != isa.SpecNCta {
		t.Error("specials wrong")
	}
}

func TestAssembleComments(t *testing.T) {
	p := mustAsm(t, `
    // full line comment
    mov r0, 1   // trailing
    mov r1, 2   # hash comment
    mov r2, 3   ; semicolon comment
    exit
`)
	if len(p.Code) != 4 {
		t.Errorf("len = %d", len(p.Code))
	}
}

func TestAssembleLabelSameLine(t *testing.T) {
	p := mustAsm(t, `
top: mov r0, 1
     bra top
`)
	if p.Labels["top"] != 0 {
		t.Errorf("top = %d", p.Labels["top"])
	}
	if p.Code[1].Target != 0 {
		t.Errorf("target = %d", p.Code[1].Target)
	}
}

func TestAssembleIMad(t *testing.T) {
	p := mustAsm(t, `
    imad r0, r1, r2, r3
    imad r0, r1, 4, r3
    fmad r5, r6, r7, r8
    selp r9, r1, r2, r3
    exit
`)
	i0 := p.Code[0]
	if i0.SrcA != 1 || i0.SrcB != 2 || i0.SrcC != 3 {
		t.Errorf("imad: %+v", i0)
	}
	i1 := p.Code[1]
	if !i1.HasImm || i1.Imm != 4 || i1.SrcC != 3 {
		t.Errorf("imad imm: %+v", i1)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"bogus r1, r2\nexit", "unknown mnemonic"},
		{"mov r99, 1\nexit", "out of range"},
		{"bra nowhere", "undefined label"},
		{"isetp r1, r2, r3\nexit", "condition suffix"},
		{"isetp.xx r1, r2, r3\nexit", "unknown condition"},
		{"mov r1, %bogus\nexit", "unknown special"},
		{"iadd r1, r2\nexit", "wants 3 operands"},
		{"ld.g r1, r2\nexit", "memory operand"},
		{"l: mov r0, 1\nl: exit", "duplicate label"},
		{".shared x\nexit", "invalid .shared"},
		{".shared 99999999999\nexit", "shared"},
		{".wat 3\nexit", "unknown directive"},
		{"mov r0, zzz\nexit", "invalid immediate"},
		{"", "empty"},
		{"iadd r0, r0, r0", "fall off"},
	}
	for _, c := range cases {
		_, err := Assemble("t", c.src)
		if err == nil {
			t.Errorf("src %q: expected error containing %q, got nil", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("src %q: error %q does not contain %q", c.src, err, c.want)
		}
	}
}

func TestErrorHasLineNumber(t *testing.T) {
	_, err := Assemble("file", "mov r0, 1\nbogus\nexit")
	if err == nil {
		t.Fatal("expected error")
	}
	ae, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if ae.Line != 2 {
		t.Errorf("line = %d, want 2", ae.Line)
	}
	if !strings.HasPrefix(err.Error(), "file:2:") {
		t.Errorf("error string %q", err)
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble should panic on bad source")
		}
	}()
	MustAssemble("bad", "nonsense")
}

func TestSyncDirective(t *testing.T) {
	p := mustAsm(t, `
div:
    mov r0, 1
rec:
    sync div
    exit
`)
	if p.Code[1].Op != isa.OpSync || p.Code[1].Target != p.Labels["div"] {
		t.Errorf("sync: %+v", p.Code[1])
	}
}
