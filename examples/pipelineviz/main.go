// Pipeline visualization (paper figure 2): the contents of the
// execution pipeline for an if/else block under classic SIMT, SBI,
// SWI, and their combination, rendered as lane-occupancy strips —
// '1' marks the primary instruction's lanes, '2' the secondary's,
// '.' an idle lane.
package main

import (
	"context"
	"fmt"
	"log"

	sbwi "repro"
)

const src = `
	mov  r1, %tid
	and  r2, r1, 1
	isetp.eq r3, r2, 0
	bra  r3, even
	imul r4, r1, 3
	iadd r4, r4, 1
	imul r4, r4, 5
	bra  join
even:
	iadd r4, r1, 100
	imul r4, r4, 7
	iadd r4, r4, 2
join:
	shl  r5, r1, 2
	mov  r6, %p0
	iadd r6, r6, r5
	st.g [r6], r4
	exit
`

func main() {
	prog, err := sbwi.Assemble("fig2", src)
	if err != nil {
		log.Fatal(err)
	}
	tf, err := sbwi.ThreadFrontier(prog)
	if err != nil {
		log.Fatal(err)
	}

	for _, a := range sbwi.Architectures() {
		p := tf
		if a == sbwi.Baseline {
			p = prog
		}
		base, err := sbwi.NewDevice(sbwi.WithArch(a))
		if err != nil {
			log.Fatal(err)
		}
		cfg := base.Config()
		cfg.TraceCap = 512
		dev, err := sbwi.NewDevice(sbwi.WithConfig(cfg))
		if err != nil {
			log.Fatal(err)
		}
		l := sbwi.NewLaunch(p, 1, 128, make([]byte, 128*4), 0)
		res, err := dev.Run(context.Background(), l)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s: %d cycles, IPC %.1f ===\n", a, res.Stats.Cycles, res.Stats.IPC())
		fmt.Print(res.Trace.Lanes(dev.Config().WarpWidth))
		if res.Trace.Dropped > 0 {
			fmt.Printf("(trace capacity reached: %d later issue events not shown)\n", res.Trace.Dropped)
		}
		fmt.Println()
	}
	fmt.Println("Compare the strips: the baseline serializes the even/odd paths,")
	fmt.Println("SBI blends them ('1' and '2' in one row), and SWI fills idle")
	fmt.Println("lanes with other warps.")
}
