package exec

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/statcheck"
)

// The warp kernels are held to the scalar functions, which are the
// specification: diffWarp runs one instruction over one mask twice from
// the same seeded state — through the warp kernel and through the
// per-lane scalar loop the SM used to run — and every register of every
// lane, the taken mask, the addresses, the memory image and the error
// must be equal.
//
// One corner is left to the compiler, not to either form: when two
// operands of a float add or multiply are both NaN, the hardware returns
// the first one's payload, and which operand comes first in the machine
// instruction is the register allocator's choice — it differed between
// EvalALU and evalRun under the fuzzer's coverage instrumentation.
// nanOrderAmbiguous names exactly those lanes; there, and only there,
// any NaN matches any NaN.

const diffMemBytes = 256

func isNaN(bits uint32) bool { return bits&0x7F800000 == 0x7F800000 && bits&0x007FFFFF != 0 }

// nanOrderAmbiguous reports whether ins, evaluated on the lane state r,
// feeds two NaNs to one float add or multiply.
func nanOrderAmbiguous(ins *isa.Instruction, r *Regs) bool {
	a, b := r.get(ins.SrcA), srcB(ins, r)
	switch ins.Op {
	case isa.OpFAdd, isa.OpFSub, isa.OpFMul:
		return isNaN(a) && isNaN(b)
	case isa.OpFMad:
		return isNaN(a) && isNaN(b) || isNaN(f(ff(a)*ff(b))) && isNaN(r.get(ins.SrcC))
	}
	return false
}

// interesting values make the edge cases (division by zero, MinInt32/-1,
// saturation, NaN) likely instead of one in 2^32.
var interesting = []uint32{
	0, 1, 2, 31, 32, 0xFFFFFFFF, 0x80000000, 0x7FFFFFFF,
	math.Float32bits(1), math.Float32bits(-1), math.Float32bits(0.5),
	math.Float32bits(float32(math.Inf(1))), math.Float32bits(float32(math.Inf(-1))),
	math.Float32bits(float32(math.NaN())), math.Float32bits(3e9), math.Float32bits(-3e9),
	0x80000000 | 1, // -0 neighbourhood / denormal
}

// lane and setLane convert one lane between the register-major file and
// the scalar layout.
func (r *WarpRegs) lane(lane int) Regs {
	var out Regs
	for reg := range out {
		out[reg] = r.rows[reg*r.width+lane]
	}
	return out
}

func (r *WarpRegs) setLane(lane int, v *Regs) {
	for reg, x := range v {
		r.rows[reg*r.width+lane] = x
	}
}

func randWord(rng *rand.Rand) uint32 {
	if rng.IntN(3) == 0 {
		return interesting[rng.IntN(len(interesting))]
	}
	return rng.Uint32()
}

// diffWarp is the differential check for one (instruction, width, mask,
// seed). ins.Dst must be valid for opcodes that write one, and a store's
// SrcC likewise: Launch.Validate guarantees both to the kernels.
func diffWarp(t testing.TB, ins *isa.Instruction, width int, mask uint64, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x5b1))
	lanes := make([]Regs, width)
	for l := range lanes {
		for r := range lanes[l] {
			lanes[l][r] = randWord(rng)
		}
	}
	params := new([isa.NumParams]uint32)
	for i := range params {
		params[i] = rng.Uint32()
	}
	env := WarpEnv{TidBase: uint32(rng.IntN(1024)), NTid: rng.Uint32(), Ctaid: rng.Uint32(), NCta: rng.Uint32(), Params: params}
	memory := make([]byte, diffMemBytes)
	for i := range memory {
		memory[i] = byte(rng.Uint32())
	}
	if ins.Op.IsMemory() && ins.SrcA.Valid() {
		// Address registers that land in bounds and aligned, except — half
		// the time — one lane that does not, so the error path and the
		// partial effects before it are compared too.
		for l := range lanes {
			lanes[l][ins.SrcA] = uint32(rng.IntN(diffMemBytes/4))*4 - ins.Imm
		}
		if rng.IntN(2) == 0 {
			lanes[rng.IntN(width)][ins.SrcA] += []uint32{1, 2, diffMemBytes, 0x80000000}[rng.IntN(4)]
		}
	}

	var w WarpRegs
	w.Reset(width)
	for l := range lanes {
		w.setLane(l, &lanes[l])
	}
	wmem := append([]byte(nil), memory...)
	before := append([]Regs(nil), lanes...)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%v width %d mask %#x seed %d: %s", ins, width, mask, seed, fmt.Sprintf(format, args...))
	}

	switch {
	case ins.Op == isa.OpBra:
		var want uint64
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if BranchTaken(ins, &lanes[l]) {
				want |= 1 << uint(l)
			}
		}
		if got := BranchTakenWarp(ins, &w, mask); got != want {
			fail("taken mask %#x, scalar loop %#x", got, want)
		}

	case ins.Op.IsMemory():
		const untouched = 0xA5A5A5A5
		addrs := make([]uint32, width)
		for i := range addrs {
			addrs[i] = untouched
		}
		EffAddrWarp(ins, &w, mask, addrs)
		for l := range addrs {
			want := uint32(untouched)
			if mask>>uint(l)&1 != 0 {
				want = EffAddr(ins, &lanes[l])
			}
			if addrs[l] != want {
				fail("lane %d address %#x, scalar %#x", l, addrs[l], want)
			}
		}
		var wantErr error
		for m := mask; m != 0 && wantErr == nil; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			r := &lanes[l]
			if ins.Op.IsLoad() {
				var v uint32
				if v, wantErr = Load32("global", memory, EffAddr(ins, r), 7); wantErr == nil {
					r[ins.Dst] = v
				}
			} else {
				wantErr = Store32("global", memory, EffAddr(ins, r), r[ins.SrcC], 7)
			}
		}
		gotErr := LoadStoreWarp(ins, &w, "global", wmem, addrs, mask, 7)
		if !reflect.DeepEqual(gotErr, wantErr) {
			fail("error %v, scalar loop %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(wmem, memory) {
			fail("memory image differs from the scalar loop's")
		}

	default:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			e := env.Lane(l)
			lanes[l][ins.Dst] = EvalALU(ins, &lanes[l], &e)
		}
		EvalWarp(ins, &w, &env, mask)
	}

	for l := range lanes {
		if got := w.lane(l); got != lanes[l] {
			for r := range got {
				if isNaN(got[r]) && isNaN(lanes[l][r]) && isa.Reg(r) == ins.Dst && nanOrderAmbiguous(ins, &before[l]) {
					continue
				}
				if got[r] != lanes[l][r] {
					fail("lane %d r%d = %#x, scalar %#x", l, r, got[r], lanes[l][r])
				}
			}
		}
	}
}

// diffMasks returns the masks a width is checked under: empty, full,
// single lane (first, last, random), a contiguous run off lane 0 and
// sparse ones.
func diffMasks(rng *rand.Rand, width int) []uint64 {
	full := uint64(1)<<uint(width) - 1 // width 64 shifts to 0: all ones
	return []uint64{
		0, full, 1, 1 << uint(width-1), 1 << uint(rng.IntN(width)),
		full &^ 7 & (full >> 3),
		rng.Uint64() & full, rng.Uint64() & rng.Uint64() & full, 0x5555555555555555 & full,
	}
}

func TestWarpKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 14))
	seed := uint64(0)
	run := func(ins isa.Instruction) {
		for _, width := range []int{32, 64, 5} {
			for _, mask := range diffMasks(rng, width) {
				seed++
				diffWarp(t, &ins, width, mask, seed)
			}
		}
	}
	// An operand the opcode does not read is present once, to show it is
	// ignored; one it reads takes every form.
	forms := func(read bool, present isa.Reg) []isa.Reg {
		if !read {
			return []isa.Reg{present}
		}
		return []isa.Reg{present, isa.RegNone, 40}
	}
	for op := isa.OpIAdd; op <= isa.OpLg2; op++ {
		for _, a := range forms(true, 3) {
			for _, b := range forms(op.NumSrcs() >= 2, 4) {
				for _, c := range forms(op.NumSrcs() >= 3, 5) {
					ins := isa.Instruction{Op: op, Cmp: isa.CmpOp(rng.IntN(7)), SrcA: a, SrcB: b, SrcC: c}
					// Destination apart from, and aliasing, each source.
					for _, dst := range []isa.Reg{9, 3, 4, 5} {
						ins.Dst = dst
						run(ins)
						imm := ins
						imm.HasImm, imm.Imm = true, randWord(rng)
						run(imm)
					}
				}
			}
		}
	}
	for cmp := isa.CmpEQ; cmp <= isa.CmpGE+1; cmp++ {
		for _, op := range []isa.Opcode{isa.OpISetp, isa.OpFSetp} {
			run(isa.Instruction{Op: op, Cmp: cmp, Dst: 1, SrcA: 1, SrcB: 2, SrcC: isa.RegNone})
			run(isa.Instruction{Op: op, Cmp: cmp, Dst: 2, SrcA: 1, HasImm: true, Imm: randWord(rng)})
		}
	}
	// Mov reads a special before an immediate before SrcA; every other
	// opcode ignores Spec.
	for spec := isa.SpecNone; spec <= isa.SpecParam0+isa.NumParams; spec++ {
		run(isa.Instruction{Op: isa.OpMov, Dst: 2, SrcA: 2, Spec: spec})
		run(isa.Instruction{Op: isa.OpMov, Dst: 2, SrcA: isa.RegNone, Spec: spec, HasImm: true, Imm: 99})
		run(isa.Instruction{Op: isa.OpIAdd, Dst: 2, SrcA: 2, SrcB: 3, Spec: spec})
	}
	for _, a := range forms(true, 3) {
		run(isa.Instruction{Op: isa.OpBra, SrcA: a, Target: 0})
		for _, op := range []isa.Opcode{isa.OpLdG, isa.OpLdS, isa.OpStG, isa.OpStS} {
			for _, imm := range []uint32{0, 8, 0xFFFFFFF0} {
				// A load whose destination is its own address register, and
				// a store whose data register is.
				run(isa.Instruction{Op: op, Dst: 6, SrcA: a, SrcC: 7, Imm: imm})
				run(isa.Instruction{Op: op, Dst: 3, SrcA: a, SrcC: 3, Imm: imm})
			}
		}
	}
}

// fuzzInstruction maps arbitrary bytes onto an instruction the kernels
// accept: any MAD/SFU opcode, a branch or a memory operation, with a
// valid destination and store-data register and anything at all in the
// source, compare and special fields.
func fuzzInstruction(op, cmp, dst, srcA, srcB, srcC, spec uint8, hasImm bool, imm uint32) isa.Instruction {
	ops := int(isa.OpBra-isa.OpIAdd) + 1 // OpIAdd..OpStS, then OpBra
	ins := isa.Instruction{
		Op: isa.OpIAdd + isa.Opcode(int(op)%ops), Cmp: isa.CmpOp(cmp),
		Dst: isa.Reg(dst % isa.NumRegs), SrcA: isa.Reg(srcA), SrcB: isa.Reg(srcB), SrcC: isa.Reg(srcC),
		Spec: isa.Special(spec), HasImm: hasImm, Imm: imm,
	}
	if ins.Op.IsStore() {
		ins.SrcC %= isa.NumRegs
	}
	return ins
}

func FuzzEvalWarp(f *testing.F) {
	// In order: op, cmp, dst, srcA, srcB, srcC, spec, hasImm, imm, mask,
	// width-1, seed. testdata/fuzz/FuzzEvalWarp holds the rest of the seed
	// corpus (one entry per kernel shape: aliasing, stride-0 immediate,
	// absent sources, %tid, a faulting gather, a run ending at lane 63).
	f.Add(uint8(0), uint8(0), uint8(1), uint8(1), uint8(2), uint8(255), uint8(0), false, uint32(0), uint64(0xFFFFFFFF), uint8(31), uint64(1))
	f.Fuzz(func(t *testing.T, op, cmp, dst, srcA, srcB, srcC, spec uint8, hasImm bool, imm uint32, mask uint64, width uint8, seed uint64) {
		ins := fuzzInstruction(op, cmp, dst, srcA, srcB, srcC, spec, hasImm, imm)
		w := int(width)%64 + 1
		diffWarp(t, &ins, w, mask&(1<<uint(w)-1), seed)
	})
}

// TestWarpRegsResetAcrossWidths is the register file's row of the
// Reset ≡ New law (statcheck.CheckReset), over widths narrower in the
// storage a wider one left, and back. A use observes every register
// word, which must be the zeros of a new file of that width, and then
// dirties them all.
func TestWarpRegsResetAcrossWidths(t *testing.T) {
	use := func(w *WarpRegs, _ int, seed uint64, _ bool) any {
		seen := []any{w.width, slices.Clone(w.rows)}
		for i := range w.rows {
			w.rows[i] = ^uint32(i) ^ uint32(seed) // what the next Reset must clear
		}
		return seen
	}
	for _, p := range statcheck.CheckReset(statcheck.ResetRow[WarpRegs, int]{
		Fresh: func(width int, seed uint64) any {
			return use(&WarpRegs{width: width, rows: make([]uint32, (isa.NumRegs+2)*width)}, width, seed, false)
		},
		Reset:   func(w *WarpRegs, width int) error { w.Reset(width); return nil },
		Use:     use,
		Configs: []int{64, 32, 1, 16},
	}) {
		t.Error(p)
	}
}

// BenchmarkWarpALU measures the functional cost of one warp-instruction
// (a 64-wide IMAD, the paper's one MAD row) under a full and a sparse
// mask, through the warp kernel and through the per-lane scalar loop it
// replaced; ns/lane is the comparable number.
func BenchmarkWarpALU(b *testing.B) {
	const width = 64
	ins := &isa.Instruction{Op: isa.OpIMad, Dst: 1, SrcA: 1, SrcB: 2, SrcC: 3}
	for _, m := range []struct {
		name string
		mask uint64
	}{{"full", math.MaxUint64}, {"sparse", 0x0F0F_1248_8001_F731}} {
		perLane := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bits.OnesCount64(m.mask)), "ns/lane")
		}
		b.Run("warp/"+m.name, func(b *testing.B) {
			var w WarpRegs
			w.Reset(width)
			env := &WarpEnv{Params: new([isa.NumParams]uint32)}
			for i := 0; i < b.N; i++ {
				EvalWarp(ins, &w, env, m.mask)
			}
			perLane(b)
		})
		b.Run("scalar-loop/"+m.name, func(b *testing.B) {
			lanes := make([]Regs, width)
			envs := make([]Env, width)
			for i := 0; i < b.N; i++ {
				for mm := m.mask; mm != 0; mm &= mm - 1 {
					l := bits.TrailingZeros64(mm)
					lanes[l][ins.Dst] = EvalALU(ins, &lanes[l], &envs[l])
				}
			}
			perLane(b)
		})
	}
}
