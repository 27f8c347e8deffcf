package kernels

// The Table Maker's Dilemma kernels (Fortin et al.) exercise
// unstructured control flow: a candidate-search loop whose body has two
// overlapping conditional regions sharing a tail block (reached both by
// skipping from the loop header and by falling out of the second
// region). Stack-based reconvergence must execute the shared tail once
// per incoming path, while thread-frontier reconvergence merges the
// paths at the tail's PC and executes it once (§5.1).
//
// TMD2 lays the blocks out in thread-frontier (ascending-PC) order.
// TMD1 implements the same function with the shared tail and loop tail
// hoisted above the loop header — the one improper layout the paper
// found in a real CUDA binary — which both defeats the min-PC
// scheduling heuristic and voids the selective-synchronization
// constraints (the SYNC insertion pass skips the violating region).

// tmd2Source is in frontier order: header, region A, region B, shared
// tail t2, loop tail t1, store.
const tmd2Source = gid + `
	mov  r5, %p1
	shl  r6, r4, 2
	iadd r5, r5, r6
	ld.g r7, [r5]
	mov  r8, 0
	mov  r9, 0
start:
	imul r10, r7, 40503
	imad r10, r8, 30029, r10
	and  r11, r10, 7
	isetp.eq r12, r11, 0
	bra  r12, t2
	shl  r13, r10, 3
	iadd r10, r10, r13
	and  r14, r10, 48
	isetp.eq r15, r14, 0
	bra  r15, t1
	xor  r10, r10, 23333
	iadd r10, r10, r7
t2:
	shr  r16, r10, 9
	xor  r10, r10, r16
	imad r10, r10, 5, r8
t1:
	iadd r9, r9, r10
	iadd r8, r8, 1
	isetp.lt r17, r8, 16
	and  r18, r10, 63
	isetp.ne r19, r18, 21
	and  r20, r17, r19
	bra  r20, start
	mov  r21, %p0
	iadd r21, r21, r6
	st.g [r21], r9
	exit
`

// tmd1Source computes the same function with t2 and t1 hoisted above
// the loop header: every branch into them is backward, violating the
// frontier-layout property.
const tmd1Source = gid + `
	mov  r5, %p1
	shl  r6, r4, 2
	iadd r5, r5, r6
	ld.g r7, [r5]
	mov  r8, 0
	mov  r9, 0
	bra  start
t2:
	shr  r16, r10, 9
	xor  r10, r10, r16
	imad r10, r10, 5, r8
t1:
	iadd r9, r9, r10
	iadd r8, r8, 1
	isetp.lt r17, r8, 16
	and  r18, r10, 63
	isetp.ne r19, r18, 21
	and  r20, r17, r19
	bra  r20, start
	mov  r21, %p0
	iadd r21, r21, r6
	st.g [r21], r9
	exit
start:
	imul r10, r7, 40503
	imad r10, r8, 30029, r10
	and  r11, r10, 7
	isetp.eq r12, r11, 0
	bra  r12, t2
	shl  r13, r10, 3
	iadd r10, r10, r13
	and  r14, r10, 48
	isetp.eq r15, r14, 0
	bra  r15, t1
	xor  r10, r10, 23333
	iadd r10, r10, r7
	bra  t2
`

// tmd declares one TMD variant: both share the input and the oracle.
func tmd(name, src string) kernel {
	const grid, block, iters = 8, 256, 16
	n := grid * block
	return kernel{
		name: name, grid: grid, block: block, src: src,
		words: 2 * n, seed: 71, params: []uint32{0, uint32(n * 4)},
		fill: func(g image, r *rng) {
			for i := 0; i < n; i++ {
				g.put(n+i, r.next())
			}
		},
		ref: func(g image) {
			for t := 0; t < n; t++ {
				x := g.get(n + t)
				acc := uint32(0)
				for i := uint32(0); i < iters; i++ {
					y := x*40503 + i*30029
					if y&7 == 0 {
						y = tmdTail(y, i)
					} else {
						y += y << 3
						if y&48 != 0 {
							y ^= 23333
							y += x
							y = tmdTail(y, i)
						}
					}
					acc += y
					if y&63 == 21 {
						break
					}
				}
				g.put(t, acc)
			}
		},
	}
}

// tmdTail is the shared tail block t2 (f3 in the CFG discussion).
func tmdTail(y, i uint32) uint32 {
	y ^= y >> 9
	return y*5 + i
}
