package kernels

// The irregular suite (figure 7b): kernels with data-dependent branch
// divergence, unbalanced if-blocks, variable-trip loops, and scattered
// memory access — the workloads SBI and SWI are built for.

// bfs ports the Rodinia breadth-first search frontier expansion: an
// unbalanced active-node gate, a data-dependent neighbor loop, and
// scattered distance updates. Frontier writes all store the same level
// value, so the result is order-independent.
func bfs() kernel {
	const grid, block, level = 8, 256, 1
	n := grid * block
	deg := func(v int) int {
		if v%16 == 0 {
			return 24
		}
		return v % 4
	}
	edges := 0
	for v := 0; v < n; v++ {
		edges += deg(v)
	}
	return kernel{
		name: "BFS", grid: grid, block: block,
		src: gid + `
	mov  r5, %p0
	shl  r6, r4, 2
	iadd r7, r5, r6
	ld.g r8, [r7]
	mov  r9, %p3
	isetp.ne r10, r8, r9
	bra  r10, done
	mov  r11, %p1
	iadd r12, r11, r6
	ld.g r13, [r12]
	ld.g r14, [r12+4]
	mov  r15, %p2
	iadd r16, r9, 1
edge:
	isetp.ge r17, r13, r14
	bra  r17, done
	shl  r18, r13, 2
	iadd r18, r15, r18
	ld.g r19, [r18]
	shl  r20, r19, 2
	iadd r20, r5, r20
	ld.g r21, [r20]
	isetp.ge r22, r21, 0
	bra  r22, skip
	st.g [r20], r16
skip:
	iadd r13, r13, 1
	bra  edge
done:
	exit
`,
		words: n + n + 1 + edges, seed: 41, params: []uint32{0, uint32(n * 4), uint32((n + n + 1) * 4), level},
		fill: func(g image, r *rng) {
			// dist: frontier nodes at the current level, the rest unvisited.
			for v := 0; v < n; v++ {
				if v%17 == 0 {
					g.putI(v, level)
				} else {
					g.putI(v, -1)
				}
			}
			// CSR row pointers and column indices.
			e := 0
			for v := 0; v < n; v++ {
				g.put(n+v, uint32(e))
				for k := 0; k < deg(v); k++ {
					g.put(n+n+1+e, r.next()%uint32(n))
					e++
				}
			}
			g.put(n+n, uint32(e))
		},
		ref: func(g image) {
			for v := 0; v < n; v++ {
				if g.getI(v) != level {
					continue
				}
				start, end := int(g.get(n+v)), int(g.get(n+v+1))
				for e := start; e < end; e++ {
					c := int(g.get(n + n + 1 + e))
					if g.getI(c) < 0 {
						g.putI(c, level+1)
					}
				}
			}
		},
	}
}

// convolutionSeparable ports the SDK separable filter's row pass:
// shared-memory staging where only the first and last warp of each
// block load the apron (unbalanced if-blocks), then a uniform
// 17-tap accumulation.
func convolutionSeparable() kernel {
	const grid, block, radius, taps = 10, 256, 8, 17
	n := grid * block
	return kernel{
		name: "ConvolutionSeparable", grid: grid, block: block,
		src: `
.shared 1088
	mov  r1, %tid
	mov  r2, %ctaid
	mov  r3, %ntid
	imad r4, r2, r3, r1
	mov  r5, %ncta
	imul r5, r5, r3
	isub r6, r5, 1
	mov  r7, %p1
	shl  r8, r4, 2
	iadd r8, r7, r8
	ld.g r9, [r8]
	iadd r10, r1, 8
	shl  r10, r10, 2
	st.s [r10], r9
	isetp.ge r11, r1, 8
	bra  r11, noleft
	isub r12, r4, 8
	imax r12, r12, 0
	shl  r13, r12, 2
	iadd r13, r7, r13
	ld.g r14, [r13]
	shl  r15, r1, 2
	st.s [r15], r14
noleft:
	isetp.lt r16, r1, 248
	bra  r16, noright
	iadd r17, r4, 8
	imin r17, r17, r6
	shl  r18, r17, 2
	iadd r18, r7, r18
	ld.g r19, [r18]
	iadd r20, r1, 16
	shl  r20, r20, 2
	st.s [r20], r19
noright:
	bar
	mov  r21, 0
	mov  r22, 0.0
	mov  r23, %p2
conv:
	iadd r24, r1, r21
	shl  r24, r24, 2
	ld.s r25, [r24]
	shl  r26, r21, 2
	iadd r26, r23, r26
	ld.g r27, [r26]
	fmad r22, r25, r27, r22
	iadd r21, r21, 1
	isetp.lt r28, r21, 17
	bra  r28, conv
	mov  r29, %p0
	shl  r30, r4, 2
	iadd r29, r29, r30
	st.g [r29], r22
	exit
`,
		words: 2*n + taps, seed: 43, params: []uint32{0, uint32(n * 4), uint32(2 * n * 4)},
		fill: func(g image, r *rng) {
			for i := 0; i < n; i++ {
				g.putF(n+i, r.unitFloat())
			}
			for k := 0; k < taps; k++ {
				g.putF(2*n+k, fsub(r.unitFloat(), 0.5))
			}
		},
		ref: func(g image) {
			clamp := func(i int) int { return max(0, min(i, n-1)) }
			for i := 0; i < n; i++ {
				acc := float32(0)
				for k := 0; k < taps; k++ {
					acc = fmad(g.getF(n+clamp(i+k-radius)), g.getF(2*n+k), acc)
				}
				g.putF(i, acc)
			}
		},
	}
}

// eigenvalues ports the SDK bisection kernel: per-thread interval
// refinement whose trip count depends on a per-thread tolerance, with a
// uniform Sturm-count inner loop kept in registers.
func eigenvalues() kernel {
	const grid, block, diags, maxIter = 4, 256, 8, 32
	n := grid * block
	return kernel{
		name: "Eigenvalues", grid: grid, block: block,
		src: gid + `
	mov  r5, %p1
	shl  r6, r4, 2
	iadd r5, r5, r6
	ld.g r7, [r5]
	mov  r8, 0.0
	mov  r9, %p2
	ld.g r16, [r9]
	ld.g r17, [r9+4]
	ld.g r18, [r9+8]
	ld.g r19, [r9+12]
	ld.g r20, [r9+16]
	ld.g r21, [r9+20]
	ld.g r22, [r9+24]
	ld.g r23, [r9+28]
	and  r10, r1, 7
	imod r11, r1, 9
	iadd r11, r11, 6
	i2f  r12, r11
	fneg r12, r12
	ex2  r12, r12
	mov  r13, 0
bisect:
	fadd r14, r8, r7
	fmul r14, r14, 0.5
	mov  r15, 0
	fsetp.lt r24, r16, r14
	iadd r15, r15, r24
	fsetp.lt r24, r17, r14
	iadd r15, r15, r24
	fsetp.lt r24, r18, r14
	iadd r15, r15, r24
	fsetp.lt r24, r19, r14
	iadd r15, r15, r24
	fsetp.lt r24, r20, r14
	iadd r15, r15, r24
	fsetp.lt r24, r21, r14
	iadd r15, r15, r24
	fsetp.lt r24, r22, r14
	iadd r15, r15, r24
	fsetp.lt r24, r23, r14
	iadd r15, r15, r24
	isetp.le r25, r15, r10
	bra  r25, lowside
	fsub r26, r14, r8
	fmul r26, r26, 0.5
	fadd r30, r14, r26
	fmin r7, r14, r30
	bra  refined
lowside:
	fsub r26, r7, r14
	fmul r26, r26, 0.5
	fsub r30, r14, r26
	fmax r8, r14, r30
refined:
	fsub r26, r7, r8
	fsetp.lt r27, r26, r12
	bra  r27, converged
	iadd r13, r13, 1
	isetp.lt r28, r13, 32
	bra  r28, bisect
converged:
	mov  r29, %p0
	iadd r29, r29, r6
	st.g [r29], r8
	exit
`,
		words: 2*n + diags, seed: 47, params: []uint32{0, uint32(n * 4), uint32(2 * n * 4)},
		fill: func(g image, r *rng) {
			for i := 0; i < n; i++ {
				g.putF(n+i, fadd(r.unitFloat(), 1.0))
			}
			for j := 0; j < diags; j++ {
				g.putF(2*n+j, fmul(r.unitFloat(), 2.0))
			}
		},
		ref: func(g image) {
			var diag [diags]float32
			for j := 0; j < diags; j++ {
				diag[j] = g.getF(2*n + j)
			}
			for i := 0; i < n; i++ {
				tidIdx := i % block
				lo, hi := float32(0), g.getF(n+i)
				target := int32(tidIdx & 7)
				eps := fex2(-float32(int32(tidIdx%9 + 6)))
				for it := 0; it < maxIter; it++ {
					mid := fmul(fadd(lo, hi), 0.5)
					count := int32(0)
					for j := 0; j < diags; j++ {
						if diag[j] < mid {
							count++
						}
					}
					if count <= target {
						lo = mid
					} else {
						hi = mid
					}
					if fsub(hi, lo) < eps {
						break
					}
				}
				g.putF(i, lo)
			}
		},
	}
}

// histogram stands in for the SDK histogram: per-thread runs of items
// with a data-dependent conflict-resolution spin (the replay loop of
// colliding bin updates), strided thread-private reads.
func histogram() kernel {
	const grid, block, items = 6, 256, 16
	n := grid * block
	return kernel{
		name: "Histogram", grid: grid, block: block,
		src: gid + `
	mov  r5, %p1
	mov  r6, 0
	mov  r7, 0
items:
	shl  r8, r4, 4
	iadd r8, r8, r6
	shl  r8, r8, 2
	iadd r9, r5, r8
	ld.g r10, [r9]
	and  r11, r10, 7
	mov  r12, 0
spin:
	isetp.ge r13, r12, r11
	bra  r13, spun
	imad r7, r7, 5, r10
	iadd r12, r12, 1
	bra  spin
spun:
	and  r15, r10, 1
	isetp.eq r16, r15, 0
	bra  r16, evenv
	imad r7, r7, 3, r10
	shr  r17, r7, 7
	xor  r7, r7, r17
	bra  donev
evenv:
	imad r7, r7, 7, r10
	shl  r17, r7, 3
	xor  r7, r7, r17
donev:
	iadd r6, r6, 1
	isetp.lt r14, r6, 16
	bra  r14, items
	mov  r15, %p0
	shl  r16, r4, 2
	iadd r15, r15, r16
	st.g [r15], r7
	exit
`,
		words: n + n*items, seed: 53, params: []uint32{0, uint32(n * 4)},
		fill: func(g image, r *rng) {
			for i := 0; i < n*items; i++ {
				g.put(n+i, r.next())
			}
		},
		ref: func(g image) {
			for t := 0; t < n; t++ {
				acc := uint32(0)
				for it := 0; it < items; it++ {
					v := g.get(n + t*items + it)
					for j := uint32(0); j < v&7; j++ {
						acc = acc*5 + v
					}
					if v&1 != 0 {
						acc = acc*3 + v
						acc ^= acc >> 7
					} else {
						acc = acc*7 + v
						acc ^= acc << 3
					}
				}
				g.put(t, acc)
			}
		},
	}
}

// lud ports the Rodinia LU decomposition's shrinking triangular active
// set: 32 barrier-separated steps in which progressively fewer lanes of
// every warp participate.
func lud() kernel {
	const grid, block, steps = 8, 256, 32
	n := grid * block
	return kernel{
		name: "LUD", grid: grid, block: block,
		src: gid + `
	mov  r5, %p1
	mov  r6, 0.0
	mov  r7, 0
	and  r8, r1, 31
step:
	bar
	isetp.lt r9, r8, r7
	bra  r9, inactive
	shl  r10, r7, 2
	iadd r10, r5, r10
	ld.g r11, [r10]
	fmad r6, r6, 0.99, r11
inactive:
	iadd r7, r7, 1
	isetp.lt r12, r7, 32
	bra  r12, step
	mov  r13, %p0
	shl  r14, r4, 2
	iadd r13, r13, r14
	st.g [r13], r6
	exit
`,
		words: n + steps, seed: 59, params: []uint32{0, uint32(n * 4)},
		fill: func(g image, r *rng) {
			for k := 0; k < steps; k++ {
				g.putF(n+k, fsub(r.unitFloat(), 0.5))
			}
		},
		ref: func(g image) {
			for t := 0; t < n; t++ {
				lane := int32(t % block % 32)
				acc := float32(0)
				for k := int32(0); k < steps; k++ {
					if lane >= k {
						acc = fmad(acc, 0.99, g.getF(n+int(k)))
					}
				}
				g.putF(t, acc)
			}
		},
	}
}

// mandelbrot ports the SDK escape-time kernel: per-pixel iteration
// counts vary wildly, and a block barrier between tiles keeps
// warp-splits from running ahead across iterations (§5.1).
func mandelbrot() kernel {
	const grid, block, tiles, maxIter = 4, 256, 2, 32
	n := grid * block
	return kernel{
		name: "Mandelbrot", grid: grid, block: block,
		src: gid + `
	mov  r5, %ncta
	imul r5, r5, r3
	mov  r6, 0
	mov  r7, 0
tile:
	imad r8, r6, r5, r4
	and  r9, r8, 1023
	i2f  r10, r9
	fmul r10, r10, 0.0029296875
	fadd r10, r10, -2.0
	imul r11, r8, 421
	and  r11, r11, 1023
	i2f  r12, r11
	fmul r12, r12, 0.00234375
	fadd r12, r12, -1.2
	mov  r13, 0.0
	mov  r14, 0.0
	mov  r15, 0
mloop:
	fmul r16, r13, r13
	fmul r17, r14, r14
	fadd r18, r16, r17
	fsetp.gt r19, r18, 4.0
	bra  r19, esc
	isetp.ge r20, r15, 32
	bra  r20, esc
	fsub r21, r16, r17
	fadd r21, r21, r10
	fmul r22, r13, r14
	fmul r22, r22, 2.0
	fadd r14, r22, r12
	mov  r13, r21
	iadd r15, r15, 1
	bra  mloop
esc:
	iadd r7, r7, r15
	bar
	iadd r6, r6, 1
	isetp.lt r23, r6, 2
	bra  r23, tile
	mov  r24, %p0
	shl  r25, r4, 2
	iadd r24, r24, r25
	st.g [r24], r7
	exit
`,
		words: n,
		ref: func(g image) {
			for t := 0; t < n; t++ {
				total := int32(0)
				for tile := 0; tile < tiles; tile++ {
					pixel := int32(tile*n + t)
					cr := fadd(fmul(float32(pixel&1023), 0.0029296875), -2.0)
					ci := fadd(fmul(float32((pixel*421)&1023), 0.00234375), -1.2)
					zr, zi := float32(0), float32(0)
					iter := int32(0)
					for {
						zr2, zi2 := fmul(zr, zr), fmul(zi, zi)
						if fadd(zr2, zi2) > 4.0 || iter >= maxIter {
							break
						}
						nzr := fadd(fsub(zr2, zi2), cr)
						zi = fadd(fmul(fmul(zr, zi), 2.0), ci)
						zr = nzr
						iter++
					}
					total += iter
				}
				g.putI(t, total)
			}
		},
	}
}

// sortingNetworks ports the SDK bitonic sort: barrier-separated
// compare-exchange steps whose swap branch depends on the data order.
func sortingNetworks() kernel {
	const grid, block, elems = 8, 128, 256
	return kernel{
		name: "SortingNetworks", grid: grid, block: block,
		src: `
.shared 1024
	mov  r1, %tid
	mov  r2, %ctaid
	mov  r3, %p1
	imul r4, r2, 1024
	iadd r3, r3, r4
	shl  r5, r1, 2
	iadd r6, r3, r5
	ld.g r7, [r6]
	st.s [r5], r7
	iadd r8, r5, 512
	iadd r9, r6, 512
	ld.g r10, [r9]
	st.s [r8], r10
	bar
	mov  r11, 2
kloop:
	shr  r12, r11, 1
jloop:
	isub r13, r12, 1
	and  r14, r1, r13
	shl  r15, r1, 1
	isub r15, r15, r14
	or   r16, r15, r12
	and  r17, r15, r11
	isetp.eq r18, r17, 0
	shl  r19, r15, 2
	ld.s r20, [r19]
	shl  r21, r16, 2
	ld.s r22, [r21]
	isetp.gt r23, r20, r22
	isetp.ne r24, r23, r18
	bra  r24, noswap
	st.s [r19], r22
	st.s [r21], r20
noswap:
	bar
	shr  r12, r12, 1
	isetp.gt r25, r12, 0
	bra  r25, jloop
	shl  r11, r11, 1
	isetp.le r26, r11, 256
	bra  r26, kloop
	ld.s r27, [r5]
	st.g [r6], r27
	ld.s r28, [r8]
	st.g [r9], r28
	exit
`,
		words: grid * elems, seed: 61,
		fill: func(g image, r *rng) {
			for i := 0; i < grid*elems; i++ {
				g.putI(i, int32(r.next()%100000))
			}
		},
		ref: func(g image) {
			sh := make([]int32, elems)
			for blk := 0; blk < grid; blk++ {
				base := blk * elems
				for i := 0; i < elems; i++ {
					sh[i] = g.getI(base + i)
				}
				for k := 2; k <= elems; k <<= 1 {
					for j := k >> 1; j > 0; j >>= 1 {
						for t := 0; t < block; t++ {
							pos := 2*t - (t & (j - 1))
							partner := pos | j
							up := pos&k == 0
							if (sh[pos] > sh[partner]) == up {
								sh[pos], sh[partner] = sh[partner], sh[pos]
							}
						}
					}
				}
				for i := 0; i < elems; i++ {
					g.putI(base+i, sh[i])
				}
			}
		},
	}
}

// srad ports the Rodinia speckle-reducing diffusion step: clamped
// derivative loads and a data-dependent branch choosing the diffusion
// coefficient formula.
func srad() kernel {
	const grid, block, sweeps = 16, 256, 3
	total := sweeps * grid * block
	return kernel{
		name: "SRAD", grid: grid, block: block,
		src: gid + `
	mov  r5, %ncta
	imul r5, r5, r3
	imul r6, r5, 3
	isub r6, r6, 1
	mov  r28, 0
sweep:
	imad r7, r28, r5, r4
	isub r8, r7, 1
	imax r8, r8, 0
	iadd r9, r7, 1
	imin r9, r9, r6
	mov  r10, %p1
	shl  r11, r7, 2
	iadd r11, r10, r11
	ld.g r14, [r11]
	shl  r12, r8, 2
	iadd r12, r10, r12
	ld.g r15, [r12]
	shl  r13, r9, 2
	iadd r13, r10, r13
	ld.g r16, [r13]
	fsub r17, r15, r14
	fsub r18, r16, r14
	fmul r19, r17, r17
	fmad r19, r18, r18, r19
	fmul r20, r14, r14
	fadd r20, r20, 0.01
	rcp  r21, r20
	fmul r22, r19, r21
	fsetp.lt r23, r22, 0.15
	bra  r23, low
	fadd r24, r22, 1.0
	rcp  r24, r24
	fmul r24, r24, 0.5
	bra  join
low:
	fmul r25, r22, 0.5
	mov  r26, 1.0
	fsub r24, r26, r25
join:
	fadd r27, r17, r18
	fmul r27, r27, 0.25
	fmul r27, r27, r24
	fadd r27, r14, r27
	mov  r29, %p0
	shl  r30, r7, 2
	iadd r29, r29, r30
	st.g [r29], r27
	iadd r28, r28, 1
	isetp.lt r31, r28, 3
	bra  r31, sweep
	exit
`,
		words: 2 * total, seed: 67, params: []uint32{0, uint32(total * 4)},
		fill: func(g image, r *rng) {
			for i := 0; i < total; i++ {
				g.putF(total+i, fadd(fmul(r.unitFloat(), 2.0), 0.05))
			}
		},
		ref: func(g image) {
			in := func(i int) float32 { return g.getF(total + max(0, min(i, total-1))) }
			for i := 0; i < total; i++ {
				x := in(i)
				dl := fsub(in(i-1), x)
				dr := fsub(in(i+1), x)
				num := fmad(dr, dr, fmul(dl, dl))
				q := fmul(num, frcp(fadd(fmul(x, x), 0.01)))
				var coef float32
				if q < 0.15 {
					coef = fsub(1.0, fmul(q, 0.5))
				} else {
					coef = fmul(frcp(fadd(q, 1.0)), 0.5)
				}
				g.putF(i, fadd(x, fmul(fmul(fadd(dl, dr), 0.25), coef)))
			}
		},
	}
}

// needlemanWunsch ports the Rodinia sequence-alignment wavefront: one
// 32-thread block per alignment, one anti-diagonal per barrier-separated
// step, thread activity growing and shrinking with the diagonal. The
// 32-thread blocks only half-fill 64-wide warps, which is why this
// kernel benefits most from lane shuffling (§5.1: +7.7% under XorRev).
func needlemanWunsch() kernel {
	const grid, block, seqLen = 6, 64, 64
	n := grid * block
	return kernel{
		name: "Needleman-Wunsch", grid: grid, block: block,
		src: `
.shared 768
	mov  r1, %tid
	mov  r2, %ctaid
	mov  r3, %ntid
	imad r4, r2, r3, r1
	mov  r5, %p1
	imul r6, r2, 256
	iadd r5, r5, r6
	mov  r7, %p2
	iadd r6, r7, r6
	shl  r7, r1, 2
	iadd r5, r5, r7
	ld.g r7, [r5]
	mov  r5, %p2
	mov  r8, 0
	mov  r9, 0
	mov  r28, 0
dloop:
	bar
	isetp.ge r11, r9, r1
	isub r10, r9, r1
	isetp.lt r12, r10, 64
	and  r11, r11, r12
	isetp.eq r11, r11, 0
	bra  r11, inactive
	imod r12, r9, 3
	imul r12, r12, 256
	iadd r13, r9, 2
	imod r13, r13, 3
	imul r13, r13, 256
	iadd r14, r9, 1
	imod r14, r14, 3
	imul r14, r14, 256
	shl  r15, r10, 2
	iadd r15, r6, r15
	ld.g r15, [r15]
	isetp.eq r17, r7, r15
	bra  r17, matched
	mov  r16, -1
	bra  scored
matched:
	mov  r16, 3
scored:
	isub r17, r1, 1
	imax r17, r17, 0
	shl  r17, r17, 2
	iadd r18, r14, r17
	ld.s r18, [r18]
	imul r19, r10, -2
	imul r22, r1, -2
	isetp.eq r23, r10, 0
	isetp.eq r24, r1, 0
	selp r25, r22, r18, r23
	selp r26, r28, r19, r23
	selp r27, r26, r25, r24
	iadd r29, r13, r17
	ld.s r29, [r29]
	iadd r30, r10, 1
	imul r30, r30, -2
	selp r31, r30, r29, r24
	shl  r17, r1, 2
	iadd r29, r13, r17
	ld.s r29, [r29]
	iadd r30, r1, 1
	imul r30, r30, -2
	selp r29, r30, r29, r23
	iadd r27, r27, r16
	iadd r31, r31, -2
	iadd r29, r29, -2
	imax r27, r27, r31
	imax r27, r27, r29
	iadd r17, r12, r17
	st.s [r17], r27
	iadd r8, r8, r27
inactive:
	iadd r9, r9, 1
	isetp.lt r11, r9, 127
	bra  r11, dloop
	mov  r10, %p0
	shl  r11, r4, 2
	iadd r10, r10, r11
	st.g [r10], r8
	exit
`,
		words: n + 2*grid*seqLen, seed: 73, params: []uint32{0, uint32(n * 4), uint32((n + grid*seqLen) * 4)},
		fill: func(g image, r *rng) {
			for i := 0; i < 2*grid*seqLen; i++ {
				g.putI(n+i, int32(r.next()%4))
			}
		},
		ref: func(g image) {
			for blk := 0; blk < grid; blk++ {
				var a, bb [seqLen]int32
				for i := 0; i < seqLen; i++ {
					a[i] = g.getI(n + blk*seqLen + i)
					bb[i] = g.getI(n + grid*seqLen + blk*seqLen + i)
				}
				var v [seqLen][seqLen]int32
				cell := func(i, j int) int32 {
					if i < 0 && j < 0 {
						return 0
					}
					if i < 0 {
						return int32(-2 * (j + 1))
					}
					if j < 0 {
						return int32(-2 * (i + 1))
					}
					return v[i][j]
				}
				for d := 0; d < 2*seqLen-1; d++ {
					for i := max(0, d-seqLen+1); i <= min(d, seqLen-1); i++ {
						j := d - i
						s := int32(-1)
						if a[i] == bb[j] {
							s = 3
						}
						val := cell(i-1, j-1) + s
						val = max(val, cell(i-1, j)-2)
						val = max(val, cell(i, j-1)-2)
						v[i][j] = val
					}
				}
				for i := 0; i < seqLen; i++ {
					acc := int32(0)
					for j := 0; j < seqLen; j++ {
						acc += v[i][j]
					}
					g.putI(blk*block+i, acc)
				}
			}
		},
	}
}

// writeStorm is a synthetic store-saturation microbenchmark (not from
// the paper's suite): every thread streams eight write-through stores
// into a private strided slice of a large output buffer, with almost no
// compute or loads between them. The aggregate write stream — grid ×
// block × 8 words, far beyond what the DRAM port drains at 10 B/cycle —
// keeps the L1 store write buffers full, so the run's wall-clock is set
// by store back-pressure alone. It exists as a regression anchor for
// the shared-memory-system model: a contention model that accounts only
// load traffic (as the retired two-pass replay did) sees this kernel as
// nearly free.
func writeStorm() kernel {
	const grid, block, items = 6, 256, 8
	n := grid * block
	return kernel{
		name: "WriteStorm", grid: grid, block: block,
		// idx = i*n + gid: consecutive lanes write consecutive words, so
		// stores coalesce densely and the traffic is bandwidth demand,
		// not transaction-count overhead. The lane-parity branch keeps
		// the kernel (minimally) divergent, per its irregular-suite
		// classification.
		src: gid + `
	mov  r5, %p0
	imul r7, r4, 7
	mov  r6, 0
loop:
	imad r8, r6, 1536, r4
	shl  r8, r8, 2
	iadd r9, r5, r8
	iadd r10, r7, r6
	and  r12, r4, 1
	isetp.eq r13, r12, 0
	bra  r13, even
	iadd r10, r10, 3
even:
	st.g [r9], r10
	iadd r6, r6, 1
	isetp.lt r11, r6, 8
	bra  r11, loop
	exit
`,
		words: n * items,
		ref: func(g image) {
			for t := 0; t < n; t++ {
				for i := 0; i < items; i++ {
					g.put(i*n+t, uint32(t*7+i+3*(t&1)))
				}
			}
		},
	}
}
