package kernels

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/isa"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/suite.golden from the current suite")

const suiteGoldenPath = "testdata/suite.golden"

// suiteLine renders one kernel as "key=value" tokens: its class, launch
// geometry, shared memory and program lengths, and an FNV-64a digest of
// its source, both assembled programs (every Instruction field, Line
// included), the launch image plus parameters, and the oracle image.
func suiteLine(t *testing.T, b *Benchmark) string {
	t.Helper()
	plain, err := b.Program(false)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := b.Program(true)
	if err != nil {
		t.Fatal(err)
	}
	l, err := b.NewLaunch(false)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(parts ...[]byte) string {
		h := fnv.New64a()
		for _, p := range parts {
			h.Write(p)
		}
		return fmt.Sprintf("%016x", h.Sum64())
	}
	code := func(p *isa.Program) []byte { return fmt.Appendf(nil, "%+v", p.Code) }
	var params []byte
	for _, v := range l.Params {
		params = binary.LittleEndian.AppendUint32(params, v)
	}
	class := "irregular"
	if b.Regular {
		class = "regular"
	}
	return fmt.Sprintf("%s class=%s geometry=%dx%d shared=%d len=%d/%d source=%s plain=%s tf=%s setup=%s expected=%s",
		b.Name, class, l.GridDim, l.BlockDim, plain.SharedMem, plain.Len(), tf.Len(),
		sum([]byte(b.Source)), sum(code(plain)), sum(code(tf)),
		sum(l.Global, params), sum(b.Expected()))
}

// TestSuiteGolden pins every suite kernel byte for byte: a refactor of
// how kernels are declared must leave every source, program, input
// image, parameter block and oracle image as the fixture records them.
// On drift it names the kernel and the fields that moved; -update is
// for an intentional change to a kernel.
func TestSuiteGolden(t *testing.T) {
	var got strings.Builder
	for _, b := range All() {
		got.WriteString(suiteLine(t, b) + "\n")
	}
	if *updateGolden {
		if err := os.WriteFile(suiteGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(suiteGoldenPath)
	if err != nil {
		t.Fatalf("read golden fixture: %v", err)
	}
	wantLines := strings.Split(string(raw), "\n")
	gotLines := strings.Split(got.String(), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, fixture has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] == wantLines[i] {
			continue
		}
		g, w := strings.Fields(gotLines[i]), strings.Fields(wantLines[i])
		var moved []string
		for j := 0; j < len(g) && j < len(w); j++ {
			if g[j] != w[j] {
				moved = append(moved, fmt.Sprintf("got %s want %s", g[j], w[j]))
			}
		}
		t.Errorf("%s drifted: %s", w[0], strings.Join(moved, "; "))
	}
}
