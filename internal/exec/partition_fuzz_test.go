package exec

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
)

// FuzzPartitionWaves checks the wave decomposition invariants over
// arbitrary grid shapes: waves tile [0, grid) exactly — contiguous,
// non-overlapping, each within the wave size — and degenerate inputs
// yield no waves.
func FuzzPartitionWaves(f *testing.F) {
	f.Add(10, 3)
	f.Add(1, 1)
	f.Add(0, 4)
	f.Add(7, -1)
	f.Add(4096, 4)
	f.Add(5, 100)
	f.Fuzz(func(t *testing.T, grid, waveSize int) {
		if grid > 1<<20 || waveSize > 1<<20 || grid < -1<<20 || waveSize < -1<<20 {
			t.Skip("outside the modeled grid range")
		}
		waves := PartitionWaves(grid, waveSize)
		if grid <= 0 || waveSize <= 0 {
			if waves != nil {
				t.Fatalf("PartitionWaves(%d, %d) = %v, want nil", grid, waveSize, waves)
			}
			return
		}
		next := 0
		for i, w := range waves {
			if w[0] != next {
				t.Fatalf("wave %d starts at %d, want %d (gap or overlap)", i, w[0], next)
			}
			if n := w[1] - w[0]; n <= 0 || n > waveSize {
				t.Fatalf("wave %d spans %d CTAs, want 1..%d", i, n, waveSize)
			}
			next = w[1]
		}
		if next != grid {
			t.Fatalf("waves end at %d, want %d", next, grid)
		}
	})
}

// FuzzMergeWaves drives the snapshot merge over random grid shapes and
// payloads: per-wave images writing disjoint CTA-owned ranges must
// round-trip into exactly the union of their writes, and two waves
// disagreeing on a byte must surface a WriteConflict naming it. Each
// merge is also folded wave by wave in an order drawn from order
// (checkFold), as the device folds waves in the order they finish.
func FuzzMergeWaves(f *testing.F) {
	f.Add(10, 3, 4, []byte{1, 2, 3, 4, 5}, uint64(0))
	f.Add(1, 1, 1, []byte{0}, uint64(1))
	f.Add(9, 2, 2, []byte{0xFF, 0x00, 0x7F}, uint64(7))
	f.Add(33, 5, 3, []byte{}, uint64(42))
	f.Fuzz(func(t *testing.T, grid, waveSize, bytesPerCTA int, seed []byte, order uint64) {
		if grid <= 0 || grid > 256 || waveSize <= 0 || waveSize > 64 ||
			bytesPerCTA <= 0 || bytesPerCTA > 16 {
			t.Skip("outside the modeled shape range")
		}
		waves := PartitionWaves(grid, waveSize)

		// Base image: a seed-derived pattern.
		base := make([]byte, grid*bytesPerCTA)
		for i := range base {
			b := byte(i * 31)
			if len(seed) > 0 {
				b ^= seed[i%len(seed)]
			}
			base[i] = b
		}

		// Each wave's image: every CTA in the wave rewrites its own byte
		// range with a CTA-derived value, guaranteed to differ from base.
		images := make([][]byte, len(waves))
		expected := append([]byte(nil), base...)
		for wi, w := range waves {
			img := append([]byte(nil), base...)
			for cta := w[0]; cta < w[1]; cta++ {
				for j := 0; j < bytesPerCTA; j++ {
					off := cta*bytesPerCTA + j
					img[off] = base[off] + 1 + byte(cta%200)
					expected[off] = img[off]
				}
			}
			images[wi] = img
		}

		dst := make([]byte, len(base))
		if err := MergeWaves(dst, base, images); err != nil {
			t.Fatalf("disjoint writes must merge cleanly: %v", err)
		}
		checkFold(t, base, images, order)
		if !bytes.Equal(dst, expected) {
			t.Fatalf("merge round-trip mismatch:\n got %v\nwant %v", dst, expected)
		}

		// Agreement on the same byte is legal (order-independent writes):
		// a second wave writing CTA 0's first byte with the same value.
		if len(waves) >= 2 {
			images[1][0] = images[0][0]
			if err := MergeWaves(dst, base, images); err != nil {
				t.Fatalf("agreeing writes must merge cleanly: %v", err)
			}
			if dst[0] != images[0][0] {
				t.Fatalf("agreed byte = %#x, want %#x", dst[0], images[0][0])
			}
			checkFold(t, base, images, order)

			// Disagreement must be a WriteConflict at that offset.
			images[1][0] = images[0][0] + 1
			if images[1][0] == base[0] {
				images[1][0]++ // stay an observable write
			}
			err := MergeWaves(dst, base, images)
			var conflict *WriteConflict
			if !errors.As(err, &conflict) {
				t.Fatalf("conflicting writes returned %v, want a WriteConflict", err)
			}
			if conflict.Offset != 0 {
				t.Fatalf("conflict at byte %d, want 0", conflict.Offset)
			}
			checkFold(t, base, images, order)
		}
	})
}

// checkFold folds images with MergeWave into the first of them in an
// order drawn from order, against base, and holds the fold to
// MergeWaves over the same images: the same image when MergeWaves
// merges, a WriteConflict (at whichever byte the order meets first)
// when it reports one.
func checkFold(t *testing.T, base []byte, images [][]byte, order uint64) {
	t.Helper()
	want := make([]byte, len(base))
	mergeErr := MergeWaves(want, base, images)
	perm := rand.New(rand.NewPCG(order, 0)).Perm(len(images))
	got := append([]byte(nil), images[perm[0]]...)
	var foldErr error
	for _, w := range perm[1:] {
		if foldErr = MergeWave(got, base, images[w]); foldErr != nil {
			break
		}
	}
	var conflict *WriteConflict
	switch {
	case errors.As(mergeErr, &conflict):
		if !errors.As(foldErr, &conflict) {
			t.Fatalf("MergeWaves reports %v; the fold in order %v returned %v", mergeErr, perm, foldErr)
		}
	case mergeErr != nil:
		t.Fatalf("MergeWaves: %v", mergeErr)
	case foldErr != nil:
		t.Fatalf("MergeWaves merges; the fold in order %v returned %v", perm, foldErr)
	case !bytes.Equal(got, want):
		t.Fatalf("the fold in order %v differs from MergeWaves' image:\n got %v\nwant %v", perm, got, want)
	}
}
