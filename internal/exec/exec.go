// Package exec implements the architectural semantics of the mini-ISA:
// instruction evaluation, the flat global/shared memory model, and the
// kernel launch descriptor shared by the functional reference simulator
// (funcsim.go) and the cycle-level SM model (internal/sm).
//
// # Two execution forms
//
// The semantics exist in two forms over two register layouts.
//
// The scalar form is the ISA's specification: EvalALU, BranchTaken,
// EffAddr, Load32 and Store32 evaluate one instruction for one thread
// over a thread-major register file (Regs, one thread's 32 registers)
// and a per-thread special-register environment (Env). RunReference,
// the oracle every simulated result is compared against, and the Go
// reference kernels run on it and on nothing else.
//
// The warp form (warp.go) is what the SM runs. A warp-instruction is one
// SIMD operation over the active lanes, so EvalWarp, BranchTakenWarp,
// EffAddrWarp and LoadStoreWarp decode the instruction once — the opcode
// switch and the operand resolution sit outside the lane loop — and then
// sweep the lanes the mask names. Their register file, WarpRegs, is
// register-major: R[reg][lane], one contiguous row of WarpWidth lanes
// per architectural register, so a source operand is a row, an invalid
// source register (RegNone) is the shared all-zero row — what Regs.get
// returns for it — and an immediate is a row read with stride 0. The
// environment, WarpEnv, is warp-uniform: %tid is the warp's base plus
// the lane, every other special is broadcast.
//
// The two forms share only the arithmetic with edge cases (evalCold,
// cmpI, Load32/Store32); everything else is written twice on purpose,
// and TestWarpKernelsMatchScalar and FuzzEvalWarp hold the warp form to
// the scalar one bit for bit.
package exec

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// Launch describes one kernel launch: the program, the grid shape, the
// kernel parameters and the global memory image. Both simulators mutate
// Global in place; callers that need the initial image must copy it.
//
// When a launch is partitioned across SM instances (sm.RunRangeOpts via a
// Device), its kernel must obey the write-sharing contract documented
// in partition.go: different CTAs may only write the same global
// location if they write the same value. MergeWaves asserts this.
type Launch struct {
	Prog     *isa.Program
	GridDim  int // number of thread blocks
	BlockDim int // threads per block
	Params   [isa.NumParams]uint32
	Global   []byte
}

// Validate checks the launch (nil is an error, not a crash), its shape
// and the program's structural invariants (an *isa.ProgramError when
// the program breaks one): a validated launch cannot make either
// simulator index a register row that does not exist or dispatch an
// opcode that does not exist.
func (l *Launch) Validate() error {
	if l == nil || l.Prog == nil {
		return fmt.Errorf("exec: launch has no program")
	}
	if l.GridDim <= 0 || l.BlockDim <= 0 {
		return fmt.Errorf("exec: launch %q: grid %d x block %d invalid", l.Prog.Name, l.GridDim, l.BlockDim)
	}
	return l.Prog.Validate()
}

// Env carries the values of special registers for one thread.
type Env struct {
	Tid    uint32
	NTid   uint32
	Ctaid  uint32
	NCta   uint32
	Params *[isa.NumParams]uint32
}

// Special returns the value of special register s for this environment.
func (e *Env) Special(s isa.Special) uint32 {
	switch s {
	case isa.SpecTid:
		return e.Tid
	case isa.SpecNTid:
		return e.NTid
	case isa.SpecCtaid:
		return e.Ctaid
	case isa.SpecNCta:
		return e.NCta
	}
	if i, ok := s.IsParam(); ok {
		return e.Params[i]
	}
	return 0
}

// Regs is one thread's register file.
type Regs [isa.NumRegs]uint32

func (r *Regs) get(reg isa.Reg) uint32 {
	if !reg.Valid() {
		return 0
	}
	return r[reg]
}

// srcB resolves the second operand, honoring an immediate.
func srcB(ins *isa.Instruction, r *Regs) uint32 {
	if ins.HasImm {
		return ins.Imm
	}
	return r.get(ins.SrcB)
}

// MemError reports an out-of-bounds or misaligned access.
type MemError struct {
	Space string // "global" or "shared"
	Addr  uint32
	Size  int
	PC    int
}

func (e *MemError) Error() string {
	return fmt.Sprintf("exec: pc %d: %s access at %#x out of bounds (size %d) or misaligned", e.PC, e.Space, e.Addr, e.Size)
}

// Load32 reads a 4-byte little-endian word from mem.
func Load32(space string, mem []byte, addr uint32, pc int) (uint32, error) {
	if addr%4 != 0 || int(addr)+4 > len(mem) {
		return 0, &MemError{Space: space, Addr: addr, Size: len(mem), PC: pc}
	}
	return uint32(mem[addr]) | uint32(mem[addr+1])<<8 | uint32(mem[addr+2])<<16 | uint32(mem[addr+3])<<24, nil
}

// Store32 writes a 4-byte little-endian word to mem.
func Store32(space string, mem []byte, addr uint32, v uint32, pc int) error {
	if addr%4 != 0 || int(addr)+4 > len(mem) {
		return &MemError{Space: space, Addr: addr, Size: len(mem), PC: pc}
	}
	mem[addr] = byte(v)
	mem[addr+1] = byte(v >> 8)
	mem[addr+2] = byte(v >> 16)
	mem[addr+3] = byte(v >> 24)
	return nil
}

// EffAddr computes the effective byte address of a memory instruction
// for one thread: SrcA + signed immediate offset.
func EffAddr(ins *isa.Instruction, r *Regs) uint32 {
	return r.get(ins.SrcA) + ins.Imm
}

// BranchTaken evaluates the predicate of a branch for one thread.
// Unconditional branches are always taken.
func BranchTaken(ins *isa.Instruction, r *Regs) bool {
	return ins.SrcA == isa.RegNone || r.get(ins.SrcA) != 0
}

// EvalALU computes the result of a MAD- or SFU-class instruction for one
// thread. It must not be called for memory or control instructions.
func EvalALU(ins *isa.Instruction, r *Regs, env *Env) uint32 {
	a := r.get(ins.SrcA)
	switch ins.Op {
	case isa.OpIAdd:
		return a + srcB(ins, r)
	case isa.OpISub:
		return a - srcB(ins, r)
	case isa.OpIMul:
		return uint32(int32(a) * int32(srcB(ins, r)))
	case isa.OpIMad:
		return uint32(int32(a)*int32(srcB(ins, r))) + r.get(ins.SrcC)
	case isa.OpIMin:
		b := srcB(ins, r)
		if int32(a) < int32(b) {
			return a
		}
		return b
	case isa.OpIMax:
		b := srcB(ins, r)
		if int32(a) > int32(b) {
			return a
		}
		return b
	case isa.OpAnd:
		return a & srcB(ins, r)
	case isa.OpOr:
		return a | srcB(ins, r)
	case isa.OpXor:
		return a ^ srcB(ins, r)
	case isa.OpNot:
		return ^a
	case isa.OpShl:
		return a << (srcB(ins, r) & 31)
	case isa.OpShr:
		return a >> (srcB(ins, r) & 31)
	case isa.OpSar:
		return uint32(int32(a) >> (srcB(ins, r) & 31))
	case isa.OpISetp:
		return boolVal(cmpI(ins.Cmp, int32(a), int32(srcB(ins, r))))
	case isa.OpSelp:
		if r.get(ins.SrcC) != 0 {
			return a
		}
		return srcB(ins, r)
	case isa.OpMov:
		switch {
		case ins.Spec != isa.SpecNone:
			return env.Special(ins.Spec)
		case ins.HasImm:
			return ins.Imm
		default:
			return a
		}

	case isa.OpFAdd:
		return f(ff(a) + ff(srcB(ins, r)))
	case isa.OpFSub:
		return f(ff(a) - ff(srcB(ins, r)))
	case isa.OpFMul:
		return f(ff(a) * ff(srcB(ins, r)))
	case isa.OpFMad:
		// The explicit float32 conversion forbids fusing the multiply and
		// add (Go spec), keeping results identical across platforms.
		return f(float32(ff(a)*ff(srcB(ins, r))) + ff(r.get(ins.SrcC)))
	}
	return evalCold(ins.Op, ins.Cmp, a, srcB(ins, r))
}

// evalCold is the arithmetic of the opcodes whose cost is the operation
// itself (division, math-library calls) or that have a saturating or
// zero-divisor edge case. It exists once: the scalar EvalALU and the
// warp kernel (EvalWarp) both end here for these opcodes, so they cannot
// disagree on an edge case. None of them reads SrcC.
func evalCold(op isa.Opcode, cmp isa.CmpOp, a, b uint32) uint32 {
	switch op {
	case isa.OpIDiv:
		ia, ib := int32(a), int32(b)
		if ib == 0 {
			return 0
		}
		if ia == math.MinInt32 && ib == -1 {
			return uint32(ia)
		}
		return uint32(ia / ib)
	case isa.OpIMod:
		ia, ib := int32(a), int32(b)
		if ib == 0 {
			return 0
		}
		if ia == math.MinInt32 && ib == -1 {
			return 0
		}
		return uint32(ia % ib)
	case isa.OpFMin:
		return f(float32(math.Min(float64(ff(a)), float64(ff(b)))))
	case isa.OpFMax:
		return f(float32(math.Max(float64(ff(a)), float64(ff(b)))))
	case isa.OpFSetp:
		return boolVal(cmpF(cmp, ff(a), ff(b)))
	case isa.OpFAbs:
		return f(float32(math.Abs(float64(ff(a)))))
	case isa.OpFNeg:
		return f(-ff(a))
	case isa.OpI2F:
		return f(float32(int32(a)))
	case isa.OpF2I:
		return uint32(truncToI32(ff(a)))

	case isa.OpRcp:
		return f(float32(1.0 / float64(ff(a))))
	case isa.OpRsq:
		return f(float32(1.0 / math.Sqrt(float64(ff(a)))))
	case isa.OpSqrt:
		return f(float32(math.Sqrt(float64(ff(a)))))
	case isa.OpSin:
		return f(float32(math.Sin(float64(ff(a)))))
	case isa.OpCos:
		return f(float32(math.Cos(float64(ff(a)))))
	case isa.OpEx2:
		return f(float32(math.Exp2(float64(ff(a)))))
	case isa.OpLg2:
		return f(float32(math.Log2(float64(ff(a)))))
	}
	panic(fmt.Sprintf("exec: EvalALU called for %s", op))
}

func ff(bits uint32) float32 { return math.Float32frombits(bits) }
func f(v float32) uint32     { return math.Float32bits(v) }

func boolVal(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func truncToI32(v float32) int32 {
	if v != v { // NaN
		return 0
	}
	if v >= math.MaxInt32 {
		return math.MaxInt32
	}
	if v <= math.MinInt32 {
		return math.MinInt32
	}
	return int32(v)
}

func cmpI(c isa.CmpOp, a, b int32) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}

func cmpF(c isa.CmpOp, a, b float32) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}
