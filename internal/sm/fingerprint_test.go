package sm

import (
	"reflect"
	"testing"
)

// TestFingerprintCoversEveryField walks Config reflectively, perturbs
// each leaf field of a table-2 configuration in turn, and asserts the
// fingerprint moves. This is the cache-key soundness guarantee: a
// future Config field that could change simulation results cannot be
// added without the fingerprint picking it up (the reflection walk
// inside Fingerprint sees it automatically, and this test documents
// the contract).
func TestFingerprintCoversEveryField(t *testing.T) {
	base := Configure(ArchSBISWI)
	ref := base.Fingerprint()
	n := perturbLeaves(t, reflect.ValueOf(&base).Elem(), "Config", func(path string) {
		if got := base.Fingerprint(); got == ref {
			t.Errorf("perturbing %s did not change the fingerprint", path)
		}
	})
	if n < 20 {
		t.Fatalf("only %d leaves perturbed — reflection walk is broken", n)
	}
}

// perturbLeaves visits every settable leaf of v, applies a minimal
// perturbation, invokes check, and restores the original value.
func perturbLeaves(t *testing.T, v reflect.Value, path string, check func(string)) int {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			n += perturbLeaves(t, v.Field(i), path+"."+f.Name, check)
		}
		return n
	case reflect.Bool:
		old := v.Bool()
		v.SetBool(!old)
		check(path)
		v.SetBool(old)
		return 1
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		old := v.Int()
		v.SetInt(old + 1)
		check(path)
		v.SetInt(old)
		return 1
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		old := v.Uint()
		v.SetUint(old + 1)
		check(path)
		v.SetUint(old)
		return 1
	case reflect.Float32, reflect.Float64:
		old := v.Float()
		v.SetFloat(old + 1)
		check(path)
		v.SetFloat(old)
		return 1
	default:
		t.Fatalf("%s: unhandled kind %s — extend the fingerprint test (and check fingerprint.Hash supports it)", path, v.Kind())
		return 0
	}
}

// TestFingerprintSplit pins the functional/timing digest split the
// trace cache keys on: the functional digest is the program variant
// alone, so of every Config leaf only Arch can move it, and only when
// the perturbation changes the variant; the timing digest, Fingerprint,
// moves with every leaf. Baseline against a thread-frontier
// architecture moves the functional digest; two thread-frontier
// architectures move only the timing digest, so one recording serves
// them all.
func TestFingerprintSplit(t *testing.T) {
	for _, a := range []Arch{ArchBaseline, ArchSBISWI} {
		base := Configure(a)
		refFunc, refTiming := base.FunctionalFingerprint(), base.Fingerprint()
		total := perturbLeaves(t, reflect.ValueOf(&base).Elem(), "Config", func(path string) {
			wantFunctional := path == "Config.Arch" && a == ArchBaseline // Baseline+1 is Warp64
			if moved := base.FunctionalFingerprint() != refFunc; moved != wantFunctional {
				t.Errorf("%s, perturbing %s: functional digest moved = %v, want %v", a, path, moved, wantFunctional)
			}
			if base.Fingerprint() == refTiming {
				t.Errorf("%s, perturbing %s: timing digest did not move", a, path)
			}
		})
		if total < 20 {
			t.Fatalf("only %d leaves perturbed — reflection walk is broken", total)
		}
	}

	b := Configure(ArchBaseline)
	for _, a := range Architectures()[1:] {
		c := Configure(a)
		if b.FunctionalFingerprint() == c.FunctionalFingerprint() {
			t.Errorf("Baseline and %s share a functional fingerprint: Baseline could replay a thread-frontier trace", a)
		}
		for _, o := range Architectures()[1:] {
			d := Configure(o)
			if a != o && (c.FunctionalFingerprint() != d.FunctionalFingerprint() || c.Fingerprint() == d.Fingerprint()) {
				t.Errorf("%s and %s: functional digests equal %v, timing digests equal %v; want true, false",
					a, o, c.FunctionalFingerprint() == d.FunctionalFingerprint(), c.Fingerprint() == d.Fingerprint())
			}
		}
	}
}

func TestFingerprintDistinguishesArchitectures(t *testing.T) {
	seen := map[uint64]Arch{}
	for _, a := range Architectures() {
		cfg := Configure(a)
		fp := cfg.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s and %s share a fingerprint", prev, a)
		}
		seen[fp] = a
	}
	cfg := Configure(ArchSBISWI)
	if cfg.Fingerprint() != cfg.Fingerprint() {
		t.Error("fingerprint is not deterministic")
	}
}
