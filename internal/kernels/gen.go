package kernels

import (
	"encoding/binary"
	"math"
)

// rng is a deterministic xorshift32 used by input generators and by
// kernels whose reference implementations need the same stream.
type rng uint32

func newRng(seed uint32) *rng {
	if seed == 0 {
		seed = 0x9E3779B9
	}
	r := rng(seed)
	return &r
}

func (r *rng) next() uint32 {
	v := uint32(*r)
	v ^= v << 13
	v ^= v >> 17
	v ^= v << 5
	*r = rng(v)
	return v
}

// unitFloat returns a float32 in [0, 1).
func (r *rng) unitFloat() float32 {
	return float32(r.next()>>8) * (1.0 / (1 << 24))
}

// image is a convenience wrapper over a little-endian global-memory
// byte image, addressed in 4-byte words.
type image []byte

func (g image) put(word int, v uint32) { binary.LittleEndian.PutUint32(g[4*word:], v) }
func (g image) get(word int) uint32    { return binary.LittleEndian.Uint32(g[4*word:]) }

func (g image) putF(word int, v float32) { g.put(word, math.Float32bits(v)) }
func (g image) getF(word int) float32    { return math.Float32frombits(g.get(word)) }

func (g image) putI(word int, v int32) { g.put(word, uint32(v)) }
func (g image) getI(word int) int32    { return int32(g.get(word)) }

// The float helpers below mirror the exact rounding shapes of
// exec.EvalALU so the Go references and the simulators agree bit for
// bit. Explicit float32 conversions forbid operation fusing (Go spec).

func fadd(a, b float32) float32 { return float32(a) + float32(b) }
func fsub(a, b float32) float32 { return float32(a) - float32(b) }
func fmul(a, b float32) float32 { return float32(a) * float32(b) }

// fmad mirrors OpFMad: round the product to float32, then add.
func fmad(a, b, c float32) float32 { return float32(a*b) + c }

func fmax(a, b float32) float32 { return float32(math.Max(float64(a), float64(b))) }
func frcp(a float32) float32    { return float32(1.0 / float64(a)) }
func fsqrt(a float32) float32   { return float32(math.Sqrt(float64(a))) }
func fex2(a float32) float32    { return float32(math.Exp2(float64(a))) }
func flg2(a float32) float32    { return float32(math.Log2(float64(a))) }
