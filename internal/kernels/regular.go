package kernels

// The regular suite (figure 7a): kernels whose warps stay converged —
// uniform loops, branch-free predication, or negligible border
// divergence — so their performance is bounded by issue bandwidth and
// unit throughput rather than divergence handling.

// threeDFD ports the SDK 3DFD stencil: a radius-2 finite difference
// with clamped borders (branch-free via imin/imax), unit-stride loads.
func threeDFD() kernel {
	const grid, block = 24, 256
	n := grid * block
	return kernel{
		name: "3DFD", regular: true, grid: grid, block: block,
		src: gid + `
	mov  r5, %ncta
	imul r5, r5, r3
	isub r10, r5, 1
	isub r7, r4, 1
	imax r7, r7, 0
	isub r8, r4, 2
	imax r8, r8, 0
	iadd r9, r4, 1
	imin r9, r9, r10
	iadd r11, r4, 2
	imin r11, r11, r10
	mov  r12, %p1
	shl  r13, r4, 2
	iadd r13, r12, r13
	ld.g r14, [r13]
	shl  r13, r7, 2
	iadd r13, r12, r13
	ld.g r15, [r13]
	shl  r13, r8, 2
	iadd r13, r12, r13
	ld.g r16, [r13]
	shl  r13, r9, 2
	iadd r13, r12, r13
	ld.g r17, [r13]
	shl  r13, r11, 2
	iadd r13, r12, r13
	ld.g r18, [r13]
	fmul r22, r14, 0.5
	fadd r23, r15, r17
	fmad r22, r23, 0.25, r22
	fadd r23, r16, r18
	fmad r22, r23, 0.125, r22
	mov  r24, %p0
	shl  r25, r4, 2
	iadd r24, r24, r25
	st.g [r24], r22
	exit
`,
		words: 2 * n, seed: 3, params: []uint32{0, uint32(n * 4)},
		fill: func(g image, r *rng) {
			for i := 0; i < n; i++ {
				g.putF(n+i, r.unitFloat())
			}
		},
		ref: func(g image) {
			in := func(i int) float32 { return g.getF(n + max(0, min(i, n-1))) }
			for i := 0; i < n; i++ {
				acc := fmul(in(i), 0.5)
				acc = fmad(fadd(in(i-1), in(i+1)), 0.25, acc)
				acc = fmad(fadd(in(i-2), in(i+2)), 0.125, acc)
				g.putF(i, acc)
			}
		},
	}
}

// backprop ports the Rodinia backprop forward pass: a uniform
// 16-iteration weighted reduction per output unit followed by a
// sigmoid-like activation on the SFU.
func backprop() kernel {
	const grid, block, hidden = 10, 256, 16
	n := grid * block
	return kernel{
		name: "Backprop", regular: true, grid: grid, block: block,
		src: gid + `
	mov  r5, %ncta
	imul r5, r5, r3
	mov  r6, %p1
	mov  r7, %p2
	mov  r8, 0
	mov  r9, 0.0
loop:
	imad r10, r8, r5, r4
	shl  r10, r10, 2
	iadd r10, r6, r10
	ld.g r11, [r10]
	shl  r12, r8, 2
	iadd r12, r7, r12
	ld.g r13, [r12]
	fmad r9, r11, r13, r9
	iadd r8, r8, 1
	isetp.lt r14, r8, 16
	bra  r14, loop
	fneg r15, r9
	ex2  r16, r15
	fadd r16, r16, 1.0
	rcp  r18, r16
	mov  r19, %p0
	shl  r20, r4, 2
	iadd r19, r19, r20
	st.g [r19], r18
	exit
`,
		words: n + hidden*n + hidden, seed: 7, params: []uint32{0, uint32(n * 4), uint32((n + hidden*n) * 4)},
		fill: func(g image, r *rng) {
			for i := 0; i < hidden*n; i++ {
				g.putF(n+i, r.unitFloat())
			}
			for j := 0; j < hidden; j++ {
				g.putF(n+hidden*n+j, r.unitFloat())
			}
		},
		ref: func(g image) {
			for i := 0; i < n; i++ {
				acc := float32(0)
				for j := 0; j < hidden; j++ {
					acc = fmad(g.getF(n+j*n+i), g.getF(n+hidden*n+j), acc)
				}
				g.putF(i, frcp(fadd(fex2(-acc), 1.0)))
			}
		},
	}
}

// binomialOptions ports the SDK binomial pricer's backward induction:
// a register-resident uniform loop of MAD-class work.
func binomialOptions() kernel {
	const grid, block, steps = 8, 256, 40
	n := grid * block
	return kernel{
		name: "BinomialOptions", regular: true, grid: grid, block: block,
		src: gid + `
	mov  r6, %p1
	shl  r7, r4, 2
	iadd r6, r6, r7
	ld.g r9, [r6]
	mov  r8, 0
loop:
	fmul r10, r9, 1.03
	fadd r10, r10, -0.015
	fmax r9, r10, 0.4
	fmul r11, r9, r9
	fmad r9, r11, 0.001, r9
	iadd r8, r8, 1
	isetp.lt r12, r8, 40
	bra  r12, loop
	mov  r13, %p0
	shl  r14, r4, 2
	iadd r13, r13, r14
	st.g [r13], r9
	exit
`,
		words: 2 * n, seed: 11, params: []uint32{0, uint32(n * 4)},
		fill: func(g image, r *rng) {
			for i := 0; i < n; i++ {
				g.putF(n+i, fadd(r.unitFloat(), 0.5))
			}
		},
		ref: func(g image) {
			for i := 0; i < n; i++ {
				x := g.getF(n + i)
				for s := 0; s < steps; s++ {
					x = fmax(fadd(fmul(x, 1.03), -0.015), 0.4)
					x = fmad(fmul(x, x), 0.001, x)
				}
				g.putF(i, x)
			}
		},
	}
}

// blackScholes ports the SDK option pricer: straight-line FP with a
// heavy transcendental (SFU) mix and zero divergence.
func blackScholes() kernel {
	const grid, block = 24, 256
	n := grid * block
	return kernel{
		name: "BlackScholes", regular: true, grid: grid, block: block,
		src: gid + `
	mov  r5, %p1
	mov  r6, %p2
	shl  r7, r4, 2
	iadd r5, r5, r7
	iadd r6, r6, r7
	ld.g r8, [r5]
	ld.g r9, [r6]
	lg2  r10, r8
	lg2  r11, r9
	fsub r12, r10, r11
	fadd r13, r8, r9
	sqrt r14, r13
	rcp  r15, r14
	fmul r16, r12, r15
	fneg r17, r16
	ex2  r18, r17
	fadd r18, r18, 1.0
	rcp  r19, r18
	fmul r20, r14, 0.2
	fsub r21, r16, r20
	fneg r22, r21
	ex2  r23, r22
	fadd r23, r23, 1.0
	rcp  r24, r23
	fmul r25, r8, r19
	fmul r26, r9, r24
	fsub r27, r25, r26
	mov  r28, %p0
	shl  r29, r4, 2
	iadd r28, r28, r29
	st.g [r28], r27
	exit
`,
		words: 3 * n, seed: 13, params: []uint32{0, uint32(n * 4), uint32(2 * n * 4)},
		fill: func(g image, r *rng) {
			for i := 0; i < n; i++ {
				g.putF(n+i, fadd(fmul(r.unitFloat(), 90), 10))
				g.putF(2*n+i, fadd(fmul(r.unitFloat(), 90), 10))
			}
		},
		ref: func(g image) {
			for i := 0; i < n; i++ {
				s, k := g.getF(n+i), g.getF(2*n+i)
				d := fsub(flg2(s), flg2(k))
				sq := fsqrt(fadd(s, k))
				d1 := fmul(d, frcp(sq))
				cdf1 := frcp(fadd(fex2(-d1), 1.0))
				d2 := fsub(d1, fmul(sq, 0.2))
				cdf2 := frcp(fadd(fex2(-d2), 1.0))
				g.putF(i, fsub(fmul(s, cdf1), fmul(k, cdf2)))
			}
		},
	}
}

// dwtHaar1D ports the SDK Haar wavelet step: each thread transforms
// four pairs into approximation and detail coefficients.
func dwtHaar1D() kernel {
	const grid, block, perThread = 12, 256, 4
	pairs := grid * block * perThread
	return kernel{
		name: "DWTHaar1D", regular: true, grid: grid, block: block,
		src: gid + `
	mov  r5, %p0
	mov  r6, %p1
	mov  r7, %p2
	mov  r8, 0
loop:
	shl  r9, r4, 2
	iadd r9, r9, r8
	shl  r10, r9, 3
	iadd r10, r6, r10
	ld.g r11, [r10]
	ld.g r12, [r10+4]
	fadd r13, r11, r12
	fmul r13, r13, 0.70710678
	fsub r14, r11, r12
	fmul r14, r14, 0.70710678
	shl  r15, r9, 2
	iadd r16, r5, r15
	st.g [r16], r13
	iadd r16, r7, r15
	st.g [r16], r14
	iadd r8, r8, 1
	isetp.lt r17, r8, 4
	bra  r17, loop
	exit
`,
		words: 2*pairs + pairs + pairs, seed: 17, params: []uint32{uint32(2 * pairs * 4), 0, uint32(3 * pairs * 4)},
		fill: func(g image, r *rng) {
			for i := 0; i < 2*pairs; i++ {
				g.putF(i, r.unitFloat())
			}
		},
		ref: func(g image) {
			for i := 0; i < pairs; i++ {
				a, d := g.getF(2*i), g.getF(2*i+1)
				g.putF(2*pairs+i, fmul(fadd(a, d), 0.70710678))
				g.putF(3*pairs+i, fmul(fsub(a, d), 0.70710678))
			}
		},
	}
}

// fastWalshTransform ports the SDK butterfly: log2(block) uniform
// steps over shared memory with XOR-indexed partners and barriers.
func fastWalshTransform() kernel {
	const grid, block = 12, 256
	n := grid * block
	return kernel{
		name: "FastWalshTransform", regular: true, grid: grid, block: block,
		src: `
.shared 1024
	mov  r1, %tid
	mov  r2, %ctaid
	mov  r3, %ntid
	imad r4, r2, r3, r1
	mov  r5, %p1
	shl  r6, r4, 2
	iadd r5, r5, r6
	ld.g r7, [r5]
	shl  r8, r1, 2
	st.s [r8], r7
	bar
	mov  r9, 1
step:
	xor  r10, r1, r9
	shl  r11, r10, 2
	ld.s r12, [r11]
	ld.s r13, [r8]
	and  r14, r1, r9
	isetp.eq r15, r14, 0
	fadd r16, r13, r12
	fsub r17, r12, r13
	selp r18, r16, r17, r15
	bar
	st.s [r8], r18
	bar
	shl  r9, r9, 1
	isetp.lt r19, r9, 256
	bra  r19, step
	ld.s r20, [r8]
	mov  r21, %p0
	shl  r22, r4, 2
	iadd r21, r21, r22
	st.g [r21], r20
	exit
`,
		words: 2 * n, seed: 19, params: []uint32{0, uint32(n * 4)},
		fill: func(g image, r *rng) {
			for i := 0; i < n; i++ {
				g.putF(n+i, fsub(r.unitFloat(), 0.5))
			}
		},
		ref: func(g image) {
			sh := make([]float32, block)
			for blk := 0; blk < grid; blk++ {
				for t := 0; t < block; t++ {
					sh[t] = g.getF(n + blk*block + t)
				}
				for stride := 1; stride < block; stride <<= 1 {
					next := make([]float32, block)
					for t := 0; t < block; t++ {
						a, bb := sh[t], sh[t^stride]
						if t&stride == 0 {
							next[t] = fadd(a, bb)
						} else {
							next[t] = fsub(bb, a)
						}
					}
					copy(sh, next)
				}
				for t := 0; t < block; t++ {
					g.putF(blk*block+t, sh[t])
				}
			}
		},
	}
}

// hotspot ports the Rodinia thermal stencil: interior threads run a
// clamped 3-point update with a power term; the two border threads take
// a short branch (negligible divergence, as in the original).
func hotspot() kernel {
	const grid, block = 16, 256
	n := grid * block
	return kernel{
		name: "Hotspot", regular: true, grid: grid, block: block,
		src: gid + `
	mov  r5, %ncta
	imul r5, r5, r3
	isub r6, r5, 1
	mov  r7, %p1
	mov  r8, %p2
	shl  r9, r4, 2
	iadd r10, r7, r9
	ld.g r11, [r10]
	isetp.eq r12, r4, 0
	isetp.eq r13, r4, r6
	or   r14, r12, r13
	bra  r14, border
	ld.g r15, [r10-4]
	ld.g r16, [r10+4]
	iadd r17, r8, r9
	ld.g r18, [r17]
	fadd r19, r15, r16
	fmul r20, r11, 2.0
	fsub r19, r19, r20
	fmul r19, r19, 0.1
	fadd r19, r11, r19
	fmad r19, r18, 0.05, r19
	bra  store
border:
	mov  r19, r11
store:
	mov  r21, %p0
	iadd r21, r21, r9
	st.g [r21], r19
	exit
`,
		words: 3 * n, seed: 23, params: []uint32{0, uint32(n * 4), uint32(2 * n * 4)},
		fill: func(g image, r *rng) {
			for i := 0; i < n; i++ {
				g.putF(n+i, fadd(fmul(r.unitFloat(), 40), 300))
				g.putF(2*n+i, r.unitFloat())
			}
		},
		ref: func(g image) {
			for i := 0; i < n; i++ {
				t := g.getF(n + i)
				if i == 0 || i == n-1 {
					g.putF(i, t)
					continue
				}
				d := fsub(fadd(g.getF(n+i-1), g.getF(n+i+1)), fmul(t, 2.0))
				out := fadd(t, fmul(d, 0.1))
				out = fmad(g.getF(2*n+i), 0.05, out)
				g.putF(i, out)
			}
		},
	}
}

// matrixMul ports the SDK tiled matrix multiply: 16x16 shared-memory
// tiles, two barriers per tile, a fully uniform inner product.
func matrixMul() kernel {
	const dim, tile = 32, 16
	const words = dim * dim
	return kernel{
		name: "MatrixMul", regular: true, grid: (dim / tile) * (dim / tile), block: tile * tile,
		src: `
.shared 2048
	mov  r1, %tid
	and  r2, r1, 15
	shr  r3, r1, 4
	mov  r4, %ctaid
	and  r5, r4, 1
	shr  r6, r4, 1
	shl  r7, r6, 4
	iadd r7, r7, r3
	shl  r8, r5, 4
	iadd r8, r8, r2
	mov  r9, 0.0
	mov  r10, 0
tileloop:
	shl  r11, r10, 4
	iadd r12, r11, r2
	imad r13, r7, 32, r12
	shl  r13, r13, 2
	mov  r14, %p1
	iadd r13, r14, r13
	ld.g r15, [r13]
	iadd r16, r11, r3
	imad r17, r16, 32, r8
	shl  r17, r17, 2
	mov  r18, %p2
	iadd r17, r18, r17
	ld.g r19, [r17]
	shl  r20, r1, 2
	st.s [r20], r15
	iadd r21, r20, 1024
	st.s [r21], r19
	bar
	mov  r22, 0
inner:
	shl  r23, r3, 4
	iadd r23, r23, r22
	shl  r23, r23, 2
	ld.s r24, [r23]
	shl  r25, r22, 4
	iadd r25, r25, r2
	shl  r25, r25, 2
	iadd r25, r25, 1024
	ld.s r26, [r25]
	fmad r9, r24, r26, r9
	iadd r22, r22, 1
	isetp.lt r27, r22, 16
	bra  r27, inner
	bar
	iadd r10, r10, 1
	isetp.lt r28, r10, 2
	bra  r28, tileloop
	imad r29, r7, 32, r8
	shl  r29, r29, 2
	mov  r30, %p0
	iadd r29, r30, r29
	st.g [r29], r9
	exit
`,
		words: 3 * words, seed: 29, params: []uint32{0, words * 4, 2 * words * 4},
		fill: func(g image, r *rng) {
			for i := 0; i < 2*words; i++ {
				g.putF(words+i, fsub(r.unitFloat(), 0.5))
			}
		},
		ref: func(g image) {
			for row := 0; row < dim; row++ {
				for col := 0; col < dim; col++ {
					acc := float32(0)
					for k := 0; k < dim; k++ {
						acc = fmad(g.getF(words+row*dim+k), g.getF(2*words+k*dim+col), acc)
					}
					g.putF(row*dim+col, acc)
				}
			}
		},
	}
}

// monteCarlo ports the SDK Monte Carlo pricer: a uniform per-thread
// simulation loop mixing an integer RNG with SFU exponentials.
func monteCarlo() kernel {
	const grid, block, paths = 6, 256, 24
	n := grid * block
	return kernel{
		name: "MonteCarlo", regular: true, grid: grid, block: block,
		src: gid + `
	mov  r5, %p1
	shl  r6, r4, 2
	iadd r5, r5, r6
	ld.g r7, [r5]
	mov  r8, 0
	mov  r9, 0.0
loop:
	shl  r10, r7, 13
	xor  r7, r7, r10
	shr  r10, r7, 17
	xor  r7, r7, r10
	shl  r10, r7, 5
	xor  r7, r7, r10
	shr  r11, r7, 8
	i2f  r12, r11
	fmul r12, r12, 0.000000059604645
	fadd r12, r12, -0.5
	fmul r13, r12, 0.3
	ex2  r14, r13
	fmul r15, r14, 100.0
	fadd r16, r15, -95.0
	fmax r16, r16, 0.0
	fadd r9, r9, r16
	iadd r8, r8, 1
	isetp.lt r17, r8, 24
	bra  r17, loop
	fmul r9, r9, 0.041666668
	mov  r18, %p0
	iadd r18, r18, r6
	st.g [r18], r9
	exit
`,
		words: 2 * n, seed: 31, params: []uint32{0, uint32(n * 4)},
		fill: func(g image, r *rng) {
			for i := 0; i < n; i++ {
				g.put(n+i, r.next()|1)
			}
		},
		ref: func(g image) {
			for i := 0; i < n; i++ {
				state := g.get(n + i)
				acc := float32(0)
				for p := 0; p < paths; p++ {
					state ^= state << 13
					state ^= state >> 17
					state ^= state << 5
					u := fadd(fmul(float32(int32(state>>8)), 0.000000059604645), -0.5)
					s := fmul(fex2(fmul(u, 0.3)), 100.0)
					acc = fadd(acc, fmax(fadd(s, -95.0), 0.0))
				}
				g.putF(i, fmul(acc, 0.041666668))
			}
		},
	}
}

// transpose ports the SDK shared-tile transpose: coalesced loads, a
// barrier, then transposed stores.
func transpose() kernel {
	const dim, tile = 96, 16
	const words = dim * dim
	return kernel{
		name: "Transpose", regular: true, grid: (dim / tile) * (dim / tile), block: tile * tile,
		src: `
.shared 1024
	mov  r1, %tid
	and  r2, r1, 15
	shr  r3, r1, 4
	mov  r4, %ctaid
	imod r5, r4, 6
	idiv r6, r4, 6
	shl  r7, r6, 4
	shl  r8, r5, 4
	iadd r9, r7, r3
	iadd r10, r8, r2
	imad r11, r9, 96, r10
	shl  r11, r11, 2
	mov  r12, %p1
	iadd r11, r12, r11
	ld.g r13, [r11]
	shl  r14, r1, 2
	st.s [r14], r13
	bar
	iadd r15, r8, r3
	iadd r16, r7, r2
	imad r17, r15, 96, r16
	shl  r17, r17, 2
	mov  r18, %p0
	iadd r17, r18, r17
	shl  r19, r2, 4
	iadd r19, r19, r3
	shl  r19, r19, 2
	ld.s r20, [r19]
	st.g [r17], r20
	exit
`,
		words: 2 * words, seed: 37, params: []uint32{0, words * 4},
		fill: func(g image, r *rng) {
			for i := 0; i < words; i++ {
				g.putF(words+i, r.unitFloat())
			}
		},
		ref: func(g image) {
			for row := 0; row < dim; row++ {
				for col := 0; col < dim; col++ {
					g.putF(col*dim+row, g.getF(words+row*dim+col))
				}
			}
		},
	}
}
