package isa

import (
	"errors"
	"strings"
	"testing"
)

func TestOpcodeUnits(t *testing.T) {
	cases := []struct {
		op   Opcode
		unit Unit
	}{
		{OpIAdd, UnitMAD}, {OpIMad, UnitMAD}, {OpFMad, UnitMAD},
		{OpISetp, UnitMAD}, {OpMov, UnitMAD}, {OpSelp, UnitMAD},
		{OpRcp, UnitSFU}, {OpSin, UnitSFU}, {OpSqrt, UnitSFU},
		{OpEx2, UnitSFU}, {OpLg2, UnitSFU},
		{OpLdG, UnitLSU}, {OpStG, UnitLSU}, {OpLdS, UnitLSU}, {OpStS, UnitLSU},
		{OpBra, UnitCTRL}, {OpSync, UnitCTRL}, {OpBar, UnitCTRL}, {OpExit, UnitCTRL},
		{OpNop, UnitCTRL},
	}
	for _, c := range cases {
		if got := c.op.Unit(); got != c.unit {
			t.Errorf("%s: unit = %s, want %s", c.op, got, c.unit)
		}
	}
}

func TestOpcodePredicates(t *testing.T) {
	if !OpLdG.IsMemory() || !OpLdG.IsLoad() || OpLdG.IsStore() || !OpLdG.IsGlobal() {
		t.Error("OpLdG predicates wrong")
	}
	if !OpStS.IsMemory() || OpStS.IsLoad() || !OpStS.IsStore() || OpStS.IsGlobal() {
		t.Error("OpStS predicates wrong")
	}
	if OpIAdd.IsMemory() || OpIAdd.IsBranch() {
		t.Error("OpIAdd predicates wrong")
	}
	if !OpBra.IsBranch() {
		t.Error("OpBra should be a branch")
	}
	if !OpIMad.HasDst() || OpStG.HasDst() || OpBra.HasDst() {
		t.Error("HasDst wrong")
	}
	if OpIMad.NumSrcs() != 3 || OpIAdd.NumSrcs() != 2 || OpNot.NumSrcs() != 1 {
		t.Error("NumSrcs wrong")
	}
}

func TestOpcodeByName(t *testing.T) {
	for op := Opcode(0); op < opcodeCount; op++ {
		name := op.Name()
		got, ok := OpcodeByName(name)
		if !ok {
			t.Fatalf("OpcodeByName(%q) not found", name)
		}
		if got != op {
			t.Fatalf("OpcodeByName(%q) = %v, want %v", name, got, op)
		}
	}
	if _, ok := OpcodeByName("bogus"); ok {
		t.Error("bogus mnemonic resolved")
	}
}

func TestSrcRegs(t *testing.T) {
	cases := []struct {
		ins  Instruction
		want []Reg
	}{
		{Instruction{Op: OpIAdd, Dst: 0, SrcA: 1, SrcB: 2, SrcC: RegNone}, []Reg{1, 2}},
		{Instruction{Op: OpIAdd, Dst: 0, SrcA: 1, SrcB: RegNone, HasImm: true}, []Reg{1}},
		{Instruction{Op: OpIMad, Dst: 0, SrcA: 1, SrcB: 2, SrcC: 3}, []Reg{1, 2, 3}},
		{Instruction{Op: OpStG, SrcA: 4, SrcC: 5, Dst: RegNone, SrcB: RegNone}, []Reg{4, 5}},
		{Instruction{Op: OpLdG, Dst: 2, SrcA: 4, SrcB: RegNone, SrcC: RegNone}, []Reg{4}},
		{Instruction{Op: OpBra, SrcA: 7, Dst: RegNone, SrcB: RegNone, SrcC: RegNone}, []Reg{7}},
		{Instruction{Op: OpBra, SrcA: RegNone, Dst: RegNone, SrcB: RegNone, SrcC: RegNone}, nil},
		{Instruction{Op: OpMov, Dst: 1, SrcA: RegNone, HasImm: true, SrcB: RegNone, SrcC: RegNone}, nil},
		{Instruction{Op: OpMov, Dst: 1, SrcA: 3, SrcB: RegNone, SrcC: RegNone}, []Reg{3}},
		{Instruction{Op: OpMov, Dst: 1, Spec: SpecTid, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone}, nil},
	}
	for i, c := range cases {
		got := c.ins.SrcRegs(nil)
		if len(got) != len(c.want) {
			t.Errorf("case %d (%s): SrcRegs = %v, want %v", i, c.ins.String(), got, c.want)
			continue
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Errorf("case %d: SrcRegs = %v, want %v", i, got, c.want)
			}
		}
	}
}

func TestInstructionString(t *testing.T) {
	cases := []struct {
		ins  Instruction
		want string
	}{
		{Instruction{Op: OpIAdd, Dst: 3, SrcA: 1, SrcB: 2}, "iadd r3, r1, r2"},
		{Instruction{Op: OpIAdd, Dst: 3, SrcA: 1, HasImm: true, Imm: 0xFFFFFFFF}, "iadd r3, r1, -1"},
		{Instruction{Op: OpLdG, Dst: 3, SrcA: 1, Imm: 16}, "ld.g r3, [r1+16]"},
		{Instruction{Op: OpStG, SrcA: 1, SrcC: 2, Imm: 4}, "st.g [r1+4], r2"},
		{Instruction{Op: OpBra, SrcA: 5, Target: 12}, "bra r5, @12"},
		{Instruction{Op: OpBra, SrcA: RegNone, Target: 12}, "bra @12"},
		{Instruction{Op: OpSync, Target: 7}, "sync @7"},
		{Instruction{Op: OpISetp, Cmp: CmpLT, Dst: 1, SrcA: 2, SrcB: 3}, "isetp.lt r1, r2, r3"},
		{Instruction{Op: OpMov, Dst: 1, Spec: SpecTid}, "mov r1, %tid"},
		{Instruction{Op: OpExit}, "exit"},
	}
	for _, c := range cases {
		if got := c.ins.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestSpecialParams(t *testing.T) {
	p5 := SpecParam(5)
	i, ok := p5.IsParam()
	if !ok || i != 5 {
		t.Fatalf("SpecParam(5).IsParam() = %d,%v", i, ok)
	}
	if _, ok := SpecTid.IsParam(); ok {
		t.Error("tid special should not be a param")
	}
	if p5.String() != "%p5" {
		t.Errorf("param string = %q", p5.String())
	}
	defer func() {
		if recover() == nil {
			t.Error("SpecParam(99) should panic")
		}
	}()
	SpecParam(99)
}

func TestProgramValidate(t *testing.T) {
	good := &Program{
		Name: "ok",
		Code: []Instruction{
			{Op: OpMov, Dst: 0, HasImm: true, SrcA: RegNone},
			{Op: OpExit},
		},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	empty := &Program{Name: "empty"}
	if err := empty.Validate(); err == nil {
		t.Error("empty program accepted")
	}

	fallOff := &Program{
		Name: "fall",
		Code: []Instruction{{Op: OpIAdd, Dst: 0, SrcA: 0, SrcB: 0}},
	}
	if err := fallOff.Validate(); err == nil || !strings.Contains(err.Error(), "fall off") {
		t.Errorf("fall-off-the-end not detected: %v", err)
	}

	badTarget := &Program{
		Name: "bt",
		Code: []Instruction{
			{Op: OpBra, SrcA: RegNone, Target: 99},
			{Op: OpExit},
		},
	}
	if err := badTarget.Validate(); err == nil {
		t.Error("out-of-range branch target accepted")
	}

	// The registers the simulators index without a fallback, and the
	// opcode they dispatch on: the error names the offending PC.
	for _, bad := range []Instruction{
		{Op: OpIAdd, Dst: RegNone, SrcA: 0, SrcB: 0},
		{Op: OpLdS, Dst: 32, SrcA: 0},
		{Op: OpStG, SrcA: 0, SrcC: RegNone},
		{Op: OpStS, SrcA: 0, SrcC: 32},
		{Op: opcodeCount},
	} {
		p := &Program{Name: "bad", Code: []Instruction{{Op: OpNop}, bad, {Op: OpExit}}}
		var pe *ProgramError
		if err := p.Validate(); !errors.As(err, &pe) || pe.PC != 1 {
			t.Errorf("%v: got %v, want a *ProgramError at pc 1", &bad, err)
		}
	}
	// A store names no destination and a source may be absent.
	fine := &Program{Name: "fine", Code: []Instruction{
		{Op: OpStG, Dst: RegNone, SrcA: RegNone, SrcC: 3},
		{Op: OpIAdd, Dst: 1, SrcA: RegNone, SrcB: RegNone},
		{Op: OpExit},
	}}
	if err := fine.Validate(); err != nil {
		t.Errorf("absent sources rejected: %v", err)
	}
}

func TestConditional(t *testing.T) {
	cond := Instruction{Op: OpBra, SrcA: 3}
	if !cond.Conditional() {
		t.Error("predicated bra should be conditional")
	}
	uncond := Instruction{Op: OpBra, SrcA: RegNone}
	if uncond.Conditional() {
		t.Error("unpredicated bra should not be conditional")
	}
	alu := Instruction{Op: OpIAdd, SrcA: 1}
	if alu.Conditional() {
		t.Error("iadd is not conditional")
	}
}

func TestDisassembleRoundTripLabels(t *testing.T) {
	p := &Program{
		Name: "d",
		Code: []Instruction{
			{Op: OpMov, Dst: 0, HasImm: true, Imm: 1, SrcA: RegNone},
			{Op: OpBra, SrcA: RegNone, Target: 0},
		},
		Labels: map[string]int{"loop": 0},
	}
	d := p.Disassemble()
	if !strings.Contains(d, "loop:") || !strings.Contains(d, "mov r0, 1") {
		t.Errorf("disassembly missing content:\n%s", d)
	}
}
