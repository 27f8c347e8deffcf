// Package isa defines the SIMT mini instruction set executed by the
// simulator.
//
// The ISA is a register-to-register load/store architecture with 32
// general-purpose 32-bit registers per thread. It is deliberately small
// but expressive enough to write the control-flow and memory-access
// patterns of the paper's benchmark suites: integer and floating-point
// arithmetic (MAD class), transcendental functions (SFU class), global
// and shared memory accesses (LSU class), and control flow including the
// thread-frontier SYNC instruction introduced by the paper.
//
// Program counters are instruction indices, not byte addresses. This
// matches the paper's use of PC ordering for thread-frontier scheduling
// while keeping the assembler and simulator simple.
package isa

import "fmt"

// Reg identifies a general-purpose register. RegNone marks an unused
// operand slot.
type Reg uint8

// NumRegs is the number of general-purpose registers per thread.
const NumRegs = 32

// RegNone marks an absent register operand.
const RegNone Reg = 0xFF

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

func (r Reg) String() string {
	if r == RegNone {
		return "-"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Opcode enumerates the operations of the mini-ISA.
type Opcode uint8

// Opcodes, grouped by execution unit class.
const (
	OpNop Opcode = iota

	// MAD class: integer.
	OpIAdd  // rd = ra + rb
	OpISub  // rd = ra - rb
	OpIMul  // rd = ra * rb (low 32 bits)
	OpIMad  // rd = ra * rb + rc
	OpIMin  // rd = min(ra, rb) signed
	OpIMax  // rd = max(ra, rb) signed
	OpIDiv  // rd = ra / rb signed (0 if rb == 0)
	OpIMod  // rd = ra % rb signed (0 if rb == 0)
	OpAnd   // rd = ra & rb
	OpOr    // rd = ra | rb
	OpXor   // rd = ra ^ rb
	OpNot   // rd = ^ra
	OpShl   // rd = ra << (rb & 31)
	OpShr   // rd = ra >> (rb & 31) logical
	OpSar   // rd = ra >> (rb & 31) arithmetic
	OpISetp // rd = (ra <cmp> rb) ? 1 : 0, signed compare
	OpSelp  // rd = rc != 0 ? ra : rb
	OpMov   // rd = ra, or rd = imm, or rd = special

	// MAD class: floating point (IEEE-754 binary32 carried in registers).
	OpFAdd  // rd = ra + rb
	OpFSub  // rd = ra - rb
	OpFMul  // rd = ra * rb
	OpFMad  // rd = ra * rb + rc
	OpFMin  // rd = min(ra, rb)
	OpFMax  // rd = max(ra, rb)
	OpFSetp // rd = (ra <cmp> rb) ? 1 : 0, float compare
	OpFAbs  // rd = |ra|
	OpFNeg  // rd = -ra
	OpI2F   // rd = float(int32(ra))
	OpF2I   // rd = int32(trunc(float(ra)))

	// SFU class: transcendental / special functions.
	OpRcp  // rd = 1/ra
	OpRsq  // rd = 1/sqrt(ra)
	OpSqrt // rd = sqrt(ra)
	OpSin  // rd = sin(ra)
	OpCos  // rd = cos(ra)
	OpEx2  // rd = 2**ra
	OpLg2  // rd = log2(ra)

	// LSU class: memory. Addresses are byte addresses; accesses are
	// 4-byte words. Effective address = ra + imm.
	OpLdG // rd = global[ra+imm]
	OpStG // global[ra+imm] = rc (data register in SrcC)
	OpLdS // rd = shared[ra+imm]
	OpStS // shared[ra+imm] = rc

	// CTRL class: control flow. These occupy an issue slot but no
	// back-end execution unit.
	OpBra  // if ra != 0 (or unconditionally when SrcA == RegNone) goto Target
	OpSync // thread-frontier reconvergence barrier; Target = PCdiv
	OpBar  // block-wide barrier
	OpExit // thread terminates

	opcodeCount
)

// CmpOp is the comparison selector for OpISetp / OpFSetp.
type CmpOp uint8

// Comparison conditions.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (c CmpOp) String() string {
	switch c {
	case CmpEQ:
		return "eq"
	case CmpNE:
		return "ne"
	case CmpLT:
		return "lt"
	case CmpLE:
		return "le"
	case CmpGT:
		return "gt"
	case CmpGE:
		return "ge"
	}
	return fmt.Sprintf("cmp(%d)", uint8(c))
}

// Special enumerates special values readable with "mov rd, %name".
type Special uint8

// Special registers.
const (
	SpecNone   Special = iota
	SpecTid            // thread index within the block
	SpecNTid           // block dimension (threads per block)
	SpecCtaid          // block index within the grid
	SpecNCta           // grid dimension (number of blocks)
	SpecParam0         // kernel parameter 0
	// Params 1..15 follow SpecParam0 contiguously.
)

// NumParams is the number of kernel parameters addressable as specials.
const NumParams = 16

// MaxSharedMem is the largest shared-memory image a block may declare:
// Fermi's 48 KiB per-block limit.
const MaxSharedMem = 48 << 10

// SpecParam returns the Special naming kernel parameter i.
func SpecParam(i int) Special {
	if i < 0 || i >= NumParams {
		panic(fmt.Sprintf("isa: parameter index %d out of range", i))
	}
	return SpecParam0 + Special(i)
}

// IsParam reports whether s names a kernel parameter, and which one.
func (s Special) IsParam() (int, bool) {
	if s >= SpecParam0 && s < SpecParam0+NumParams {
		return int(s - SpecParam0), true
	}
	return 0, false
}

func (s Special) String() string {
	switch s {
	case SpecNone:
		return "%none"
	case SpecTid:
		return "%tid"
	case SpecNTid:
		return "%ntid"
	case SpecCtaid:
		return "%ctaid"
	case SpecNCta:
		return "%ncta"
	}
	if i, ok := s.IsParam(); ok {
		return fmt.Sprintf("%%p%d", i)
	}
	return fmt.Sprintf("%%spec(%d)", uint8(s))
}

// Unit is the execution unit class an opcode dispatches to.
type Unit uint8

// Unit classes. CTRL instructions are handled by the scheduler front-end
// and occupy no back-end unit.
const (
	UnitMAD Unit = iota
	UnitSFU
	UnitLSU
	UnitCTRL
)

func (u Unit) String() string {
	switch u {
	case UnitMAD:
		return "MAD"
	case UnitSFU:
		return "SFU"
	case UnitLSU:
		return "LSU"
	case UnitCTRL:
		return "CTRL"
	}
	return fmt.Sprintf("unit(%d)", uint8(u))
}

// Instruction is one decoded instruction. The zero value is a NOP.
type Instruction struct {
	Op   Opcode
	Cmp  CmpOp // comparison selector for OpISetp/OpFSetp
	Dst  Reg
	SrcA Reg
	SrcB Reg
	SrcC Reg

	// Imm is the immediate operand. For ALU ops with HasImm set it
	// replaces SrcB; for memory ops it is the byte offset added to SrcA.
	Imm    uint32
	HasImm bool

	// Spec is the special value read by "mov rd, %special".
	Spec Special

	// Target is the branch target PC for OpBra and the divergence-point
	// PC (PCdiv) payload for OpSync.
	Target int

	// RecPC is the reconvergence PC (immediate postdominator) attached to
	// conditional branches by the CFG analysis; -1 when not applicable.
	// The baseline stack mechanism pushes it on divergence.
	RecPC int

	// Line is the 1-based source line, for diagnostics.
	Line int
}

var opInfo = [opcodeCount]struct {
	name string
	unit Unit
	// operand counts drive the disassembler and assembler checks
	hasDst           bool
	srcs             int  // number of register sources (before imm substitution)
	writesMem        bool // store: data register lives in SrcC
	isMem            bool
	isBranch, isSync bool
}{
	OpNop:   {name: "nop", unit: UnitCTRL},
	OpIAdd:  {name: "iadd", unit: UnitMAD, hasDst: true, srcs: 2},
	OpISub:  {name: "isub", unit: UnitMAD, hasDst: true, srcs: 2},
	OpIMul:  {name: "imul", unit: UnitMAD, hasDst: true, srcs: 2},
	OpIMad:  {name: "imad", unit: UnitMAD, hasDst: true, srcs: 3},
	OpIMin:  {name: "imin", unit: UnitMAD, hasDst: true, srcs: 2},
	OpIMax:  {name: "imax", unit: UnitMAD, hasDst: true, srcs: 2},
	OpIDiv:  {name: "idiv", unit: UnitMAD, hasDst: true, srcs: 2},
	OpIMod:  {name: "imod", unit: UnitMAD, hasDst: true, srcs: 2},
	OpAnd:   {name: "and", unit: UnitMAD, hasDst: true, srcs: 2},
	OpOr:    {name: "or", unit: UnitMAD, hasDst: true, srcs: 2},
	OpXor:   {name: "xor", unit: UnitMAD, hasDst: true, srcs: 2},
	OpNot:   {name: "not", unit: UnitMAD, hasDst: true, srcs: 1},
	OpShl:   {name: "shl", unit: UnitMAD, hasDst: true, srcs: 2},
	OpShr:   {name: "shr", unit: UnitMAD, hasDst: true, srcs: 2},
	OpSar:   {name: "sar", unit: UnitMAD, hasDst: true, srcs: 2},
	OpISetp: {name: "isetp", unit: UnitMAD, hasDst: true, srcs: 2},
	OpSelp:  {name: "selp", unit: UnitMAD, hasDst: true, srcs: 3},
	OpMov:   {name: "mov", unit: UnitMAD, hasDst: true, srcs: 1},
	OpFAdd:  {name: "fadd", unit: UnitMAD, hasDst: true, srcs: 2},
	OpFSub:  {name: "fsub", unit: UnitMAD, hasDst: true, srcs: 2},
	OpFMul:  {name: "fmul", unit: UnitMAD, hasDst: true, srcs: 2},
	OpFMad:  {name: "fmad", unit: UnitMAD, hasDst: true, srcs: 3},
	OpFMin:  {name: "fmin", unit: UnitMAD, hasDst: true, srcs: 2},
	OpFMax:  {name: "fmax", unit: UnitMAD, hasDst: true, srcs: 2},
	OpFSetp: {name: "fsetp", unit: UnitMAD, hasDst: true, srcs: 2},
	OpFAbs:  {name: "fabs", unit: UnitMAD, hasDst: true, srcs: 1},
	OpFNeg:  {name: "fneg", unit: UnitMAD, hasDst: true, srcs: 1},
	OpI2F:   {name: "i2f", unit: UnitMAD, hasDst: true, srcs: 1},
	OpF2I:   {name: "f2i", unit: UnitMAD, hasDst: true, srcs: 1},
	OpRcp:   {name: "rcp", unit: UnitSFU, hasDst: true, srcs: 1},
	OpRsq:   {name: "rsq", unit: UnitSFU, hasDst: true, srcs: 1},
	OpSqrt:  {name: "sqrt", unit: UnitSFU, hasDst: true, srcs: 1},
	OpSin:   {name: "sin", unit: UnitSFU, hasDst: true, srcs: 1},
	OpCos:   {name: "cos", unit: UnitSFU, hasDst: true, srcs: 1},
	OpEx2:   {name: "ex2", unit: UnitSFU, hasDst: true, srcs: 1},
	OpLg2:   {name: "lg2", unit: UnitSFU, hasDst: true, srcs: 1},
	OpLdG:   {name: "ld.g", unit: UnitLSU, hasDst: true, srcs: 1, isMem: true},
	OpStG:   {name: "st.g", unit: UnitLSU, srcs: 1, writesMem: true, isMem: true},
	OpLdS:   {name: "ld.s", unit: UnitLSU, hasDst: true, srcs: 1, isMem: true},
	OpStS:   {name: "st.s", unit: UnitLSU, srcs: 1, writesMem: true, isMem: true},
	OpBra:   {name: "bra", unit: UnitCTRL, isBranch: true},
	OpSync:  {name: "sync", unit: UnitCTRL, isSync: true},
	OpBar:   {name: "bar", unit: UnitCTRL},
	OpExit:  {name: "exit", unit: UnitCTRL},
}

// Name returns the assembler mnemonic of op.
func (op Opcode) Name() string {
	if int(op) < len(opInfo) && opInfo[op].name != "" {
		return opInfo[op].name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

func (op Opcode) String() string { return op.Name() }

// Unit returns the execution unit class of op.
func (op Opcode) Unit() Unit {
	if int(op) < len(opInfo) {
		return opInfo[op].unit
	}
	return UnitCTRL
}

// IsMemory reports whether op is a load or store.
func (op Opcode) IsMemory() bool { return int(op) < len(opInfo) && opInfo[op].isMem }

// IsLoad reports whether op reads memory into a register.
func (op Opcode) IsLoad() bool { return op == OpLdG || op == OpLdS }

// IsStore reports whether op writes memory.
func (op Opcode) IsStore() bool { return op == OpStG || op == OpStS }

// IsGlobal reports whether op accesses global memory (as opposed to the
// block-local shared memory).
func (op Opcode) IsGlobal() bool { return op == OpLdG || op == OpStG }

// IsBranch reports whether op is a (possibly conditional) branch.
func (op Opcode) IsBranch() bool { return op == OpBra }

// HasDst reports whether op writes a destination register.
func (op Opcode) HasDst() bool { return int(op) < len(opInfo) && opInfo[op].hasDst }

// NumSrcs returns the number of register source operands of op,
// not counting the store-data register.
func (op Opcode) NumSrcs() int {
	if int(op) < len(opInfo) {
		return opInfo[op].srcs
	}
	return 0
}

// Conditional reports whether i is a conditional branch (one whose
// outcome can diverge across threads).
func (i *Instruction) Conditional() bool {
	return i.Op == OpBra && i.SrcA != RegNone
}

// SrcRegs appends the register sources actually read by i to dst and
// returns it. The store-data register (SrcC of stores) and the branch
// predicate are included; RegNone slots and immediate-substituted slots
// are excluded.
func (i *Instruction) SrcRegs(dst []Reg) []Reg {
	add := func(r Reg) {
		if r.Valid() {
			dst = append(dst, r)
		}
	}
	switch i.Op {
	case OpBra:
		add(i.SrcA)
	case OpStG, OpStS:
		add(i.SrcA) // address
		add(i.SrcC) // data
	case OpMov:
		if !i.HasImm && i.Spec == SpecNone {
			add(i.SrcA)
		}
	default:
		n := i.Op.NumSrcs()
		if n >= 1 {
			add(i.SrcA)
		}
		if n >= 2 && !i.HasImm {
			add(i.SrcB)
		}
		if n >= 3 {
			add(i.SrcC)
		}
	}
	return dst
}

// String renders i in assembler syntax.
func (i *Instruction) String() string {
	switch i.Op {
	case OpNop:
		return "nop"
	case OpBar:
		return "bar"
	case OpExit:
		return "exit"
	case OpSync:
		return fmt.Sprintf("sync @%d", i.Target)
	case OpBra:
		if i.SrcA == RegNone {
			return fmt.Sprintf("bra @%d", i.Target)
		}
		return fmt.Sprintf("bra %s, @%d", i.SrcA, i.Target)
	case OpMov:
		switch {
		case i.Spec != SpecNone:
			return fmt.Sprintf("mov %s, %s", i.Dst, i.Spec)
		case i.HasImm:
			return fmt.Sprintf("mov %s, %d", i.Dst, int32(i.Imm))
		default:
			return fmt.Sprintf("mov %s, %s", i.Dst, i.SrcA)
		}
	case OpLdG, OpLdS:
		return fmt.Sprintf("%s %s, %s", i.Op.Name(), i.Dst, memRef(i.SrcA, int32(i.Imm)))
	case OpStG, OpStS:
		return fmt.Sprintf("%s %s, %s", i.Op.Name(), memRef(i.SrcA, int32(i.Imm)), i.SrcC)
	case OpISetp, OpFSetp:
		b := i.SrcB.String()
		if i.HasImm {
			b = fmt.Sprintf("%d", int32(i.Imm))
		}
		return fmt.Sprintf("%s.%s %s, %s, %s", i.Op.Name(), i.Cmp, i.Dst, i.SrcA, b)
	}
	// Generic ALU rendering.
	s := i.Op.Name() + " " + i.Dst.String()
	n := i.Op.NumSrcs()
	if n >= 1 {
		s += ", " + i.SrcA.String()
	}
	if n >= 2 {
		if i.HasImm {
			s += fmt.Sprintf(", %d", int32(i.Imm))
		} else {
			s += ", " + i.SrcB.String()
		}
	}
	if n >= 3 {
		s += ", " + i.SrcC.String()
	}
	return s
}

// memRef renders a memory operand in assembler-parsable form.
func memRef(addr Reg, off int32) string {
	if off < 0 {
		return fmt.Sprintf("[%s%d]", addr, off)
	}
	return fmt.Sprintf("[%s+%d]", addr, off)
}

// OpcodeByName maps an assembler mnemonic (without condition suffix) to
// its opcode. The second result is false for unknown mnemonics.
func OpcodeByName(name string) (Opcode, bool) {
	op, ok := nameToOp[name]
	return op, ok
}

var nameToOp = func() map[string]Opcode {
	m := make(map[string]Opcode, opcodeCount)
	for op := Opcode(0); op < opcodeCount; op++ {
		if n := opInfo[op].name; n != "" {
			m[n] = op
		}
	}
	return m
}()

// Program is an assembled kernel: a flat instruction sequence plus
// metadata. PCs index Code.
type Program struct {
	Name      string
	Code      []Instruction
	Labels    map[string]int // label name -> PC
	SharedMem int            // bytes of shared memory per block, at most MaxSharedMem
	// SyncInserted records whether thread-frontier SYNC instructions
	// have been inserted (by the cfg package).
	SyncInserted bool
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Code) }

// At returns the instruction at pc. It panics if pc is out of range;
// the simulator treats PCs past the end as implicit EXIT before calling.
func (p *Program) At(pc int) *Instruction { return &p.Code[pc] }

// Disassemble renders the whole program with PCs and labels.
func (p *Program) Disassemble() string {
	byPC := make(map[int][]string)
	for name, pc := range p.Labels {
		byPC[pc] = append(byPC[pc], name)
	}
	var out []byte
	for pc := range p.Code {
		for _, l := range sortedStrings(byPC[pc]) {
			out = append(out, (l + ":\n")...)
		}
		out = append(out, fmt.Sprintf("%4d:  %s\n", pc, p.Code[pc].String())...)
	}
	return string(out)
}

func sortedStrings(s []string) []string {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s
}

// ProgramError reports a structural invariant a program violates. PC is
// the offending instruction, or -1 when the defect is the program's
// shape (empty, control can fall off the end, or a shared-memory size
// out of range).
type ProgramError struct {
	Prog   string
	PC     int
	Reason string
}

func (e *ProgramError) Error() string {
	if e.PC < 0 {
		return fmt.Sprintf("isa: %s: %s", e.Prog, e.Reason)
	}
	return fmt.Sprintf("isa: %s pc %d: %s", e.Prog, e.PC, e.Reason)
}

// Validate checks structural invariants of the program: opcodes known,
// branch and sync targets in range, every register an instruction
// indexes without a fallback valid (the destination, and the data
// register of a store), and a terminating instruction present on every
// path end (the last instruction must be an unconditional branch or
// exit), and a shared-memory size within 0..MaxSharedMem. Source
// registers may be RegNone: they read as zero. A violation is reported
// as a *ProgramError.
func (p *Program) Validate() error {
	n := len(p.Code)
	if n == 0 {
		return &ProgramError{Prog: p.Name, PC: -1, Reason: "program is empty"}
	}
	if p.SharedMem < 0 || p.SharedMem > MaxSharedMem {
		return &ProgramError{Prog: p.Name, PC: -1, Reason: fmt.Sprintf("shared memory size %d outside 0..%d", p.SharedMem, MaxSharedMem)}
	}
	for pc := range p.Code {
		ins := &p.Code[pc]
		var reason string
		switch {
		case ins.Op >= opcodeCount:
			reason = fmt.Sprintf("invalid opcode %d", ins.Op)
		case ins.Op == OpBra && (ins.Target < 0 || ins.Target >= n):
			reason = fmt.Sprintf("branch target %d out of range", ins.Target)
		case ins.Op == OpSync && (ins.Target < 0 || ins.Target >= n):
			reason = fmt.Sprintf("sync PCdiv %d out of range", ins.Target)
		case ins.Op.HasDst() && !ins.Dst.Valid():
			reason = "missing destination register"
		case ins.Op.IsStore() && !ins.SrcC.Valid():
			reason = "missing store data register"
		default:
			continue
		}
		return &ProgramError{Prog: p.Name, PC: pc, Reason: reason}
	}
	last := &p.Code[n-1]
	if last.Op != OpExit && !(last.Op == OpBra && last.SrcA == RegNone) {
		return &ProgramError{Prog: p.Name, PC: -1, Reason: fmt.Sprintf("control can fall off the end (last op %s)", last.Op)}
	}
	return nil
}
