package kernels

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Every suite kernel must survive a disassemble→reassemble round trip
// with identical instruction encodings (modulo labels, which the
// disassembler renders as addresses). This exercises the full
// mnemonic/operand surface the suite uses.
func TestDisassembleRoundTrip(t *testing.T) {
	for _, b := range All() {
		p, err := b.Program(false)
		if err != nil {
			t.Fatal(err)
		}
		dis := p.Disassemble()
		if dis == "" {
			t.Fatalf("%s: empty disassembly", b.Name)
		}
		// Rebuild a source from the disassembly: strip PCs, convert
		// "@N" targets into labels.
		src := rebuildSource(dis)
		p2, err := asm.Assemble(b.Name, src)
		if err != nil {
			t.Fatalf("%s: reassembly failed: %v\n%s", b.Name, err, src)
		}
		if p2.Len() != p.Len() {
			t.Fatalf("%s: length %d -> %d after round trip", b.Name, p.Len(), p2.Len())
		}
		for pc := range p.Code {
			a, bb := p.Code[pc], p2.Code[pc]
			// RecPC/Line are metadata the round trip does not carry.
			a.RecPC, bb.RecPC = -1, -1
			a.Line, bb.Line = 0, 0
			if a != bb {
				t.Fatalf("%s: pc %d differs after round trip:\n  %v\n  %v", b.Name, pc, &a, &bb)
			}
		}
	}
}

// rebuildSource converts "  12:  bra r3, @5"-style disassembly into
// assemblable source with generated labels.
func rebuildSource(dis string) string {
	var out strings.Builder
	fmt.Fprintf(&out, ".shared %d\n", isa.MaxSharedMem) // superset; size not compared
	for _, line := range strings.Split(dis, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasSuffix(line, ":") && !strings.Contains(line, " ") {
			continue // label line from the original program
		}
		colon := strings.Index(line, ":")
		if colon < 0 {
			continue
		}
		pc := strings.TrimSpace(line[:colon])
		body := strings.TrimSpace(line[colon+1:])
		body = strings.ReplaceAll(body, "@", "L")
		out.WriteString("L" + pc + ": " + body + "\n")
	}
	return out.String()
}

// The shared-memory directive must be preserved by Program.
func TestSharedMemoryDeclared(t *testing.T) {
	withShared := map[string]bool{
		"FastWalshTransform": true, "MatrixMul": true, "Transpose": true,
		"ConvolutionSeparable": true, "Needleman-Wunsch": true, "SortingNetworks": true,
	}
	for _, b := range All() {
		p, err := b.Program(false)
		if err != nil {
			t.Fatal(err)
		}
		if withShared[b.Name] && p.SharedMem == 0 {
			t.Errorf("%s: expected shared memory", b.Name)
		}
		if !withShared[b.Name] && p.SharedMem != 0 {
			t.Errorf("%s: unexpected shared memory %d", b.Name, p.SharedMem)
		}
	}
}

// The suite must collectively exercise every unit class and the major
// control-flow constructs, or the evaluation would silently lose
// coverage when kernels are edited.
func TestSuiteInstructionCoverage(t *testing.T) {
	units := map[isa.Unit]bool{}
	ops := map[isa.Opcode]bool{}
	for _, b := range All() {
		p, err := b.Program(true)
		if err != nil {
			t.Fatal(err)
		}
		for pc := range p.Code {
			ins := &p.Code[pc]
			units[ins.Op.Unit()] = true
			ops[ins.Op] = true
		}
	}
	for _, u := range []isa.Unit{isa.UnitMAD, isa.UnitSFU, isa.UnitLSU, isa.UnitCTRL} {
		if !units[u] {
			t.Errorf("suite never uses unit %v", u)
		}
	}
	for _, op := range []isa.Opcode{
		isa.OpBra, isa.OpSync, isa.OpBar, isa.OpExit,
		isa.OpLdG, isa.OpStG, isa.OpLdS, isa.OpStS,
		isa.OpFMad, isa.OpIMad, isa.OpSelp, isa.OpISetp, isa.OpFSetp,
		isa.OpRcp, isa.OpSqrt, isa.OpEx2, isa.OpLg2, isa.OpI2F,
	} {
		if !ops[op] {
			t.Errorf("suite never uses %v", op)
		}
	}
}
