// Package area models the hardware cost of SBI and SWI (paper §5.2):
// the storage requirements of every front-end structure (table 3) and
// an analytical area estimate per component (table 4).
//
// The paper synthesized RTL with a production compiler and scaled the
// results to Fermi's 40 nm process. We cannot run RTL synthesis, so the
// substitution is an analytical model: bit
// counts are computed from first principles for any geometry, and area
// is bits x a per-component, per-organization coefficient calibrated so
// the paper's default geometry reproduces the paper's table 4. Changing
// the geometry (warp count, scoreboard depth, CCT capacity...) scales
// the estimates linearly in the affected structure.
//
// # Calibration
//
// PaperCoefficients holds one coefficient per component organization,
// in µm² per bit at 40 nm, fitted to the paper's table 4 (×1000 µm²)
// at the table-3 bit counts of PaperGeometry:
//
//	component      organization             µm²/bit  bits   model  paper
//	Scoreboard     2 banks (Baseline, SWI)    38.02   2304   87.6   87.6
//	Scoreboard     one array (SBI)            18.98   3456   65.6   65.6
//	Scoreboard     one array (SBI+SWI)        18.98   6912  131.2  131.2
//	Warp pool      Baseline                   21.74   3072   66.8   66.8
//	HCT            SBI, SBI+SWI               18.35   4824   88.5   88.8
//	HCT            SWI                        17.55   2496   43.8   43.8
//	Stack          Baseline                   15.85  36864  584.3  584.4
//	CCT            SBI, SWI, SBI+SWI          36.12  13312  480.8  480.8
//	Insn. buffer   Baseline, SBI              17.19   3072   52.8   52.8
//	Insn. buffer   dual-ported (SWI)          21.81   1536   33.5   33.4
//	Insn. buffer   dual-ported (SBI+SWI)      21.81   3072   67.0   67.4
//
// Two components are fixed adders rather than per-bit costs: the
// segmented register file (570, every interweaving design) and the
// associative scheduler lookup (27.4, SWI and SBI+SWI). The design
// totals come out at 791.5, 1257.8, 1243.1 and 1364.9 against the
// paper's 791.6, 1258, 1243 and 1365.6, and the overhead percentages
// divide by SMArea, a 15.6 mm² SM. TestTable4Areas holds every cell
// within 0.5 and every total within 3 of the paper.
package area

import "fmt"

// Design identifies a column of tables 3 and 4.
type Design int

// Designs in paper column order.
const (
	Baseline Design = iota
	SBI
	SWI
	SBISWI
	numDesigns
)

func (d Design) String() string {
	switch d {
	case Baseline:
		return "Baseline"
	case SBI:
		return "SBI"
	case SWI:
		return "SWI"
	case SBISWI:
		return "SBI+SWI"
	}
	return fmt.Sprintf("Design(%d)", int(d))
}

// Designs lists all columns.
func Designs() []Design { return []Design{Baseline, SBI, SWI, SBISWI} }

// Geometry holds the structure-sizing parameters. The paper's SM
// (table 3) tracks 48 32-wide warps in two pools for the baseline and
// 24 64-wide warps for the interweaving designs (1536 threads either
// way).
type Geometry struct {
	PoolWarps      int // warps per pool, baseline (2 pools)
	WideWarps      int // 64-wide warps, interweaving designs
	WarpWidth      int // wide-warp width
	BaseWidth      int // baseline warp width
	PCBits         int
	ScoreEntries   int // scoreboard entries per warp
	RegIDBits      int // destination-register identifier bits
	StackBlocks    int // baseline reconvergence stack: blocks per warp
	StackBlockBits int
	CCTEntries     int // cold context table entries (shared)
	InsnBits       int // instruction-buffer entry payload
}

// PaperGeometry returns the paper's table-3 sizing.
func PaperGeometry() Geometry {
	return Geometry{
		PoolWarps:      24,
		WideWarps:      24,
		WarpWidth:      64,
		BaseWidth:      32,
		PCBits:         32,
		ScoreEntries:   6,
		RegIDBits:      8,
		StackBlocks:    3,
		StackBlockBits: 256, // 4 entries x 64 bits
		CCTEntries:     128,
		InsnBits:       64,
	}
}

// Component identifies a row of tables 3 and 4.
type Component int

// Components in paper row order.
const (
	RegisterFile Component = iota
	Scoreboard
	Scheduler
	HCT // warp pool / hot context table
	CCT // reconvergence stack / cold context table
	InsnBuffer
	numComponents
)

func (c Component) String() string {
	switch c {
	case RegisterFile:
		return "RF"
	case Scoreboard:
		return "Scoreboard"
	case Scheduler:
		return "Scheduler"
	case HCT:
		return "Warp pool/HCT"
	case CCT:
		return "Stack/CCT"
	case InsnBuffer:
		return "Insn. buffer"
	}
	return fmt.Sprintf("Component(%d)", int(c))
}

// Components lists all rows.
func Components() []Component {
	return []Component{RegisterFile, Scoreboard, Scheduler, HCT, CCT, InsnBuffer}
}

// Storage is one table-3 cell: a structural description and the bit
// count it implies.
type Storage struct {
	Desc string
	Bits int
}

// StorageOf computes the table-3 cell for (component, design) under g.
func StorageOf(g Geometry, c Component, d Design) Storage {
	switch c {
	case RegisterFile:
		if d == Baseline {
			return Storage{Desc: "Single-decoder"}
		}
		return Storage{Desc: "Segmented"}

	case Scoreboard:
		// Entry: destination register ID plus in-flight bookkeeping.
		base := g.ScoreEntries * g.RegIDBits // 48 bits at defaults
		switch d {
		case Baseline, SWI:
			return Storage{
				Desc: fmt.Sprintf("2x %dx %d-bit", g.PoolWarps, base),
				Bits: 2 * g.PoolWarps * base,
			}
		case SBI:
			// Dependency row over {primary, secondary, cold} per entry,
			// extending each warp's 48 bits to 144 (paper table 3):
			// the matrix state triples the entry.
			bits := 3 * base
			return Storage{
				Desc: fmt.Sprintf("%dx %d-bit", g.WideWarps, bits),
				Bits: g.WideWarps * bits,
			}
		default: // SBISWI: dual-issue needs a second bank
			bits := 2 * 3 * base
			return Storage{
				Desc: fmt.Sprintf("%dx %d-bit", g.WideWarps, bits),
				Bits: g.WideWarps * bits,
			}
		}

	case Scheduler:
		switch d {
		case Baseline:
			return Storage{Desc: "Symmetric"}
		case SBI:
			return Storage{Desc: "Warp-split"}
		default:
			return Storage{Desc: "Associative lookup"}
		}

	case HCT:
		ctx := g.PCBits + g.WarpWidth + 8 // PC + mask + CCT head pointer = 104
		switch d {
		case Baseline:
			// Warp pool entry: PC + 32-bit mask = 64 bits.
			bits := g.PCBits + g.BaseWidth
			return Storage{
				Desc: fmt.Sprintf("2x %dx %d-bit", g.PoolWarps, bits),
				Bits: 2 * g.PoolWarps * bits,
			}
		case SWI:
			return Storage{
				Desc: fmt.Sprintf("%dx %d-bit", g.WideWarps, ctx),
				Bits: g.WideWarps * ctx,
			}
		default:
			// Two hot contexts plus a valid bit: 201 bits.
			bits := 2*(g.PCBits+g.WarpWidth) + 8 + 1
			desc := fmt.Sprintf("%dx %d-bit", g.WideWarps, bits)
			if d == SBISWI {
				desc += ", banked"
			}
			return Storage{Desc: desc, Bits: g.WideWarps * bits}
		}

	case CCT:
		if d == Baseline {
			// Per-warp reconvergence stack in blocks.
			n := 2 * g.PoolWarps * g.StackBlocks
			return Storage{
				Desc: fmt.Sprintf("%dx %d-bit", n, g.StackBlockBits),
				Bits: n * g.StackBlockBits,
			}
		}
		ctx := g.PCBits + g.WarpWidth + 8
		return Storage{
			Desc: fmt.Sprintf("%dx %d-bit", g.CCTEntries, ctx),
			Bits: g.CCTEntries * ctx,
		}

	case InsnBuffer:
		switch d {
		case Baseline:
			return Storage{
				Desc: fmt.Sprintf("%dx %d-bit", 2*g.PoolWarps, g.InsnBits),
				Bits: 2 * g.PoolWarps * g.InsnBits,
			}
		case SBI:
			// One entry per warp-split: 2 per warp.
			return Storage{
				Desc: fmt.Sprintf("%dx %d-bit", 2*g.WideWarps, g.InsnBits),
				Bits: 2 * g.WideWarps * g.InsnBits,
			}
		case SWI:
			return Storage{
				Desc: fmt.Sprintf("%dx %d-bit, dual-ported", g.WideWarps, g.InsnBits),
				Bits: g.WideWarps * g.InsnBits,
			}
		default:
			return Storage{
				Desc: fmt.Sprintf("%dx %d-bit, dual-ported", 2*g.WideWarps, g.InsnBits),
				Bits: 2 * g.WideWarps * g.InsnBits,
			}
		}
	}
	return Storage{}
}

// Coefficients are the calibrated per-bit area costs (µm² per bit at
// 40 nm) and fixed adders (×1000 µm²). They reproduce the paper's
// table 4 at the paper geometry; see the package comment for the
// substitution rationale.
type Coefficients struct {
	ScoreboardBanked float64 // small per-pool banks (dual read ports)
	ScoreboardMono   float64 // single wide array
	HCTBase          float64
	HCTSBI           float64
	HCTSWI           float64
	StackPerBit      float64
	CCTPerBit        float64 // includes sideband-sorter logic
	InsnPerBit       float64
	InsnDualPerBit   float64

	RFSegmentation float64 // fixed: breaking the RF into per-lane banks
	AssocScheduler float64 // fixed: set-associative mask lookup logic
	SMArea         float64 // full SM for overhead percentage (×1000 µm²)
}

// PaperCoefficients returns the calibration that reproduces table 4.
func PaperCoefficients() Coefficients {
	return Coefficients{
		ScoreboardBanked: 38.02,
		ScoreboardMono:   18.98,
		HCTBase:          21.74,
		HCTSBI:           18.35,
		HCTSWI:           17.55,
		StackPerBit:      15.85,
		CCTPerBit:        36.12,
		InsnPerBit:       17.19,
		InsnDualPerBit:   21.81,
		RFSegmentation:   570,
		AssocScheduler:   27.4,
		SMArea:           15600, // 15.6 mm²
	}
}

// AreaOf estimates the table-4 cell in ×1000 µm².
func AreaOf(g Geometry, k Coefficients, c Component, d Design) float64 {
	bits := float64(StorageOf(g, c, d).Bits)
	switch c {
	case RegisterFile:
		if d == Baseline {
			return 0
		}
		return k.RFSegmentation
	case Scoreboard:
		if d == Baseline || d == SWI {
			return bits * k.ScoreboardBanked / 1000
		}
		return bits * k.ScoreboardMono / 1000
	case Scheduler:
		if d == SWI || d == SBISWI {
			return k.AssocScheduler
		}
		return 0
	case HCT:
		switch d {
		case Baseline:
			return bits * k.HCTBase / 1000
		case SWI:
			return bits * k.HCTSWI / 1000
		default:
			return bits * k.HCTSBI / 1000
		}
	case CCT:
		if d == Baseline {
			return bits * k.StackPerBit / 1000
		}
		return bits * k.CCTPerBit / 1000
	case InsnBuffer:
		if d == SWI || d == SBISWI {
			return bits * k.InsnDualPerBit / 1000
		}
		return bits * k.InsnPerBit / 1000
	}
	return 0
}

// Total sums a design's column of table 4 (×1000 µm²).
func Total(g Geometry, k Coefficients, d Design) float64 {
	t := 0.0
	for _, c := range Components() {
		t += AreaOf(g, k, c, d)
	}
	return t
}

// Overhead returns a design's area increase over the baseline
// (×1000 µm²) and as a fraction of the full SM.
func Overhead(g Geometry, k Coefficients, d Design) (abs, frac float64) {
	abs = Total(g, k, d) - Total(g, k, Baseline)
	return abs, abs / k.SMArea
}
