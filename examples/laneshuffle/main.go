// Lane shuffling study (paper table 1, figure 8b): a workload where
// the first threads of every warp carry more work — the correlated
// imbalance pattern of §4 — compared under every shuffling policy.
package main

import (
	"context"
	"fmt"
	"log"

	sbwi "repro"
)

// Thread t of every warp loops proportionally to (63 - t%64): low lanes
// work longest. Under Identity mapping every warp's busy threads sit in
// the same lanes, so SWI cannot pack two warps onto the row; XorRev
// spreads them.
const src = `
	mov  r1, %tid
	mov  r2, %ctaid
	mov  r3, %ntid
	imad r4, r2, r3, r1
	and  r5, r1, 63
	mov  r6, 64
	isub r6, r6, r5
	mov  r7, 0
	mov  r8, 0
work:
	imad r8, r8, 3, r4
	iadd r7, r7, 1
	isetp.lt r9, r7, r6
	bra  r9, work
	shl  r10, r4, 2
	mov  r11, %p0
	iadd r11, r11, r10
	st.g [r11], r8
	exit
`

func main() {
	prog, err := sbwi.Assemble("imbalance", src)
	if err != nil {
		log.Fatal(err)
	}
	tf, err := sbwi.ThreadFrontier(prog)
	if err != nil {
		log.Fatal(err)
	}

	policies := []sbwi.Shuffle{sbwi.Identity, sbwi.MirrorOdd, sbwi.MirrorHalf, sbwi.Xor, sbwi.XorRev}
	const grid, block = 16, 256

	swi, err := sbwi.NewDevice(sbwi.WithArch(sbwi.SWI))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-12s %8s %8s %10s\n", "policy", "cycles", "IPC", "SWI pairs")
	var identity int64
	for _, pol := range policies {
		cfg := swi.Config()
		cfg.Shuffle = pol
		dev, err := sbwi.NewDevice(sbwi.WithConfig(cfg))
		if err != nil {
			log.Fatal(err)
		}
		l := sbwi.NewLaunch(tf, grid, block, make([]byte, grid*block*4), 0)
		res, err := dev.Run(context.Background(), l)
		if err != nil {
			log.Fatal(err)
		}
		s := res.Stats
		if pol == sbwi.Identity {
			identity = s.Cycles
		}
		fmt.Printf("%-12s %8d %8.2f %10d   (%+.1f%% vs Identity)\n",
			pol, s.Cycles, s.IPC(), s.SWIPairs,
			100*(float64(identity)/float64(s.Cycles)-1))
	}
}
