package exec

import (
	"math/bits"

	"repro/internal/isa"
)

// This file is the warp form of the ISA's semantics (see the package
// comment): the four kernels the SM model executes a warp-instruction
// with, over a register-major register file. Every kernel takes the
// thread mask of the lanes to execute; mask bits at or above the
// register file's width are a caller bug and panic (index out of
// range). The instruction must come from a validated program
// (Launch.Validate): destination and store-data registers are indexed
// without a fallback.

// WarpRegs is one warp's register file, register-major: register r of
// lane l is rows[r*width+l], so the lanes of one architectural register
// are contiguous. Two more rows follow the isa.NumRegs register rows:
// an all-zero row that invalid source registers read — RegNone reads 0,
// like Regs.get — and a scratch row whose lane 0 holds the immediate of
// the instruction being evaluated, read with stride 0.
type WarpRegs struct {
	width int
	rows  []uint32
}

const (
	zeroRow = isa.NumRegs
	immRow  = isa.NumRegs + 1
)

// Reset makes r a zeroed register file of width lanes, reusing its
// storage whenever it is large enough (an SM's warp contexts are reset
// for every block they host, and a recycled SM's for every warp width
// its launches bring).
func (r *WarpRegs) Reset(width int) {
	n := (isa.NumRegs + 2) * width
	if cap(r.rows) < n {
		r.rows = make([]uint32, n)
	} else {
		r.rows = r.rows[:n]
		clear(r.rows)
	}
	r.width = width
}

// row returns the lanes of a register the instruction must name (a
// destination, a store's data register).
//
//sbwi:hotpath
func (r *WarpRegs) row(reg isa.Reg) []uint32 {
	if !reg.Valid() {
		panic("exec: warp kernel on an unvalidated program: invalid destination or store-data register")
	}
	return r.rows[int(reg)*r.width:][:r.width]
}

// src returns the lanes of a source register: the all-zero row when the
// register is invalid.
//
//sbwi:hotpath
func (r *WarpRegs) src(reg isa.Reg) []uint32 {
	i := int(reg)
	if !reg.Valid() {
		i = zeroRow
	}
	return r.rows[i*r.width:][:r.width]
}

// srcB resolves the second operand to a row and the mask its lane index
// is read through: a register row with every index bit kept, or the
// immediate in lane 0 of the scratch row with the index forced to 0.
//
//sbwi:hotpath
func (r *WarpRegs) srcB(ins *isa.Instruction) (row []uint32, laneBits int) {
	if ins.HasImm {
		row = r.rows[immRow*r.width:][:r.width]
		row[0] = ins.Imm
		return row, 0
	}
	return r.src(ins.SrcB), -1
}

// WarpEnv carries the special registers of one warp. Only %tid differs
// between lanes — lane l reads TidBase+l — so the rest is stored once.
type WarpEnv struct {
	TidBase uint32 // %tid of lane 0
	NTid    uint32
	Ctaid   uint32
	NCta    uint32
	Params  *[isa.NumParams]uint32
}

// Lane returns one lane's scalar environment.
func (e *WarpEnv) Lane(lane int) Env {
	return Env{Tid: e.TidBase + uint32(lane), NTid: e.NTid, Ctaid: e.Ctaid, NCta: e.NCta, Params: e.Params}
}

// nextRun splits the lowest run of consecutive set bits [lo, hi) off m.
// A kernel sweeps a mask run by run: a full or tail-clipped warp is one
// run, and within a run the lanes are a plain slice the compiler can
// index without bounds checks.
//
//sbwi:hotpath
func nextRun(m uint64) (lo, hi int, rest uint64) {
	lo = bits.TrailingZeros64(m)
	hi = lo + bits.TrailingZeros64(^(m >> uint(lo)))
	return lo, hi, m &^ (1<<uint(hi) - 1) // hi == 64 shifts to 0: clears everything
}

// EvalWarp executes a MAD- or SFU-class instruction for the lanes in
// mask: the warp form of EvalALU, including the destination write. Each
// lane's operands are read before its destination is written, so Dst may
// alias any source.
//
//sbwi:hotpath
func EvalWarp(ins *isa.Instruction, r *WarpRegs, env *WarpEnv, mask uint64) {
	d := r.row(ins.Dst)
	if ins.Op == isa.OpMov {
		movWarp(ins, d, r, env, mask)
		return
	}
	a, c := r.src(ins.SrcA), r.src(ins.SrcC)
	b, bl := r.srcB(ins)
	for m := mask; m != 0; {
		var lo, hi int
		lo, hi, m = nextRun(m)
		evalRun(ins.Op, ins.Cmp, d[lo:hi], a[lo:hi], b[lo&bl:][:hi-lo], bl, c[lo:hi])
	}
}

// movWarp is EvalWarp for OpMov, whose operand is a special register, an
// immediate or SrcA, in that order of precedence.
//
//sbwi:hotpath
func movWarp(ins *isa.Instruction, d []uint32, r *WarpRegs, env *WarpEnv, mask uint64) {
	var a []uint32 // nil: every lane receives v, plus its lane number when perLane is 1
	var v, perLane uint32
	switch {
	case ins.Spec == isa.SpecTid:
		v, perLane = env.TidBase, 1
	case ins.Spec != isa.SpecNone:
		e := env.Lane(0)
		v = e.Special(ins.Spec)
	case ins.HasImm:
		v = ins.Imm
	default:
		a = r.src(ins.SrcA)
	}
	for m := mask; m != 0; {
		var lo, hi int
		lo, hi, m = nextRun(m)
		if a != nil {
			copy(d[lo:hi], a[lo:hi])
			continue
		}
		for i := lo; i < hi; i++ {
			d[i] = v + uint32(i)*perLane
		}
	}
}

// evalRun evaluates one opcode over one run of lanes. d, a, b and c are
// the run's slices of the destination and operand rows; b is indexed
// through bl (see srcB). The cheap, frequent opcodes have their own lane
// loop; the rest go lane by lane through evalCold, where the operation
// itself dominates.
//
//sbwi:hotpath
func evalRun(op isa.Opcode, cmp isa.CmpOp, d, a, b []uint32, bl int, c []uint32) {
	a, b, c = a[:len(d)], b[:len(d)], c[:len(d)]
	switch op {
	case isa.OpIAdd:
		for i := range d {
			d[i] = a[i] + b[i&bl]
		}
	case isa.OpISub:
		for i := range d {
			d[i] = a[i] - b[i&bl]
		}
	case isa.OpIMul:
		for i := range d {
			d[i] = uint32(int32(a[i]) * int32(b[i&bl]))
		}
	case isa.OpIMad:
		for i := range d {
			d[i] = uint32(int32(a[i])*int32(b[i&bl])) + c[i]
		}
	case isa.OpIMin:
		for i := range d {
			d[i] = uint32(min(int32(a[i]), int32(b[i&bl])))
		}
	case isa.OpIMax:
		for i := range d {
			d[i] = uint32(max(int32(a[i]), int32(b[i&bl])))
		}
	case isa.OpAnd:
		for i := range d {
			d[i] = a[i] & b[i&bl]
		}
	case isa.OpOr:
		for i := range d {
			d[i] = a[i] | b[i&bl]
		}
	case isa.OpXor:
		for i := range d {
			d[i] = a[i] ^ b[i&bl]
		}
	case isa.OpNot:
		for i := range d {
			d[i] = ^a[i]
		}
	case isa.OpShl:
		for i := range d {
			d[i] = a[i] << (b[i&bl] & 31)
		}
	case isa.OpShr:
		for i := range d {
			d[i] = a[i] >> (b[i&bl] & 31)
		}
	case isa.OpSar:
		for i := range d {
			d[i] = uint32(int32(a[i]) >> (b[i&bl] & 31))
		}
	case isa.OpISetp:
		for i := range d {
			d[i] = boolVal(cmpI(cmp, int32(a[i]), int32(b[i&bl])))
		}
	case isa.OpSelp:
		for i := range d {
			v := b[i&bl]
			if c[i] != 0 {
				v = a[i]
			}
			d[i] = v
		}
	case isa.OpFAdd:
		for i := range d {
			d[i] = f(ff(a[i]) + ff(b[i&bl]))
		}
	case isa.OpFSub:
		for i := range d {
			d[i] = f(ff(a[i]) - ff(b[i&bl]))
		}
	case isa.OpFMul:
		for i := range d {
			d[i] = f(ff(a[i]) * ff(b[i&bl]))
		}
	case isa.OpFMad:
		for i := range d {
			// float32(...) forbids fusing the multiply and add, as in EvalALU.
			d[i] = f(float32(ff(a[i])*ff(b[i&bl])) + ff(c[i]))
		}
	default:
		for i := range d {
			d[i] = evalCold(op, cmp, a[i], b[i&bl])
		}
	}
}

// BranchTakenWarp evaluates a branch's predicate for the lanes in mask
// and returns the mask of lanes that take it: the warp form of
// BranchTaken. An unconditional branch takes every lane.
//
//sbwi:hotpath
func BranchTakenWarp(ins *isa.Instruction, r *WarpRegs, mask uint64) uint64 {
	if ins.SrcA == isa.RegNone {
		return mask
	}
	a := r.src(ins.SrcA)
	var taken uint64
	for m := mask; m != 0; {
		var lo, hi int
		lo, hi, m = nextRun(m)
		for i, v := range a[lo:hi] {
			if v != 0 {
				taken |= 1 << uint(lo+i)
			}
		}
	}
	return taken
}

// EffAddrWarp writes the effective byte address of a memory instruction
// into addrs[lane] for the lanes in mask: the warp form of EffAddr.
// Other entries of addrs are left alone.
//
//sbwi:hotpath
func EffAddrWarp(ins *isa.Instruction, r *WarpRegs, mask uint64, addrs []uint32) {
	a := r.src(ins.SrcA)
	for m := mask; m != 0; {
		var lo, hi int
		lo, hi, m = nextRun(m)
		out := addrs[lo:hi]
		for i, v := range a[lo:hi][:len(out)] {
			out[i] = v + ins.Imm
		}
	}
}

// LoadStoreWarp performs a load (gather into Dst) or store (scatter from
// SrcC) at addrs[lane] for the lanes in mask, in ascending lane order,
// through Load32/Store32. It stops at the first failing lane and returns
// that lane's *MemError; the lanes before it have taken effect, as in
// the scalar per-thread loop.
//
//sbwi:hotpath
func LoadStoreWarp(ins *isa.Instruction, r *WarpRegs, space string, mem []byte, addrs []uint32, mask uint64, pc int) error {
	if ins.Op.IsLoad() {
		d := r.row(ins.Dst)
		for m := mask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			v, err := Load32(space, mem, addrs[i], pc)
			if err != nil {
				return err
			}
			d[i] = v
		}
		return nil
	}
	data := r.row(ins.SrcC)
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if err := Store32(space, mem, addrs[i], data[i], pc); err != nil {
			return err
		}
	}
	return nil
}
