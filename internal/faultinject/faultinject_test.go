package faultinject

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// fireAll visits the site n times and returns, per hit, whether a fault
// was injected (error or panic; panics are recovered and count).
func fireAll(p *Plan, site Site, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = func() (injected bool) {
			defer func() {
				if recover() != nil {
					injected = true
				}
			}()
			return p.Fire(site) != nil
		}()
	}
	return out
}

func TestHitsTriggerIsExact(t *testing.T) {
	p := NewPlan(1, Spec{{Site: SiteCacheFill, Kind: KindError, Hits: []uint64{2, 5}}})
	got := fireAll(p, SiteCacheFill, 6)
	want := []bool{false, true, false, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d: injected=%v, want %v (full: %v)", i+1, got[i], want[i], got)
		}
	}
	if n := p.Injected(SiteCacheFill); n != 2 {
		t.Fatalf("Injected = %d, want 2", n)
	}
	if n := p.Hits(SiteCacheFill); n != 6 {
		t.Fatalf("Hits = %d, want 6", n)
	}
}

func TestEveryTrigger(t *testing.T) {
	p := NewPlan(1, Spec{{Site: SiteSuiteWorker, Kind: KindError, Every: 3}})
	got := fireAll(p, SiteSuiteWorker, 7)
	want := []bool{false, false, true, false, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d: injected=%v, want %v", i+1, got[i], want[i])
		}
	}
}

func TestProbTriggerIsSeedDeterministic(t *testing.T) {
	spec := Spec{{Site: SiteQueueAcquire, Kind: KindError, Prob: 0.4}}
	a := fireAll(NewPlan(42, spec), SiteQueueAcquire, 200)
	b := fireAll(NewPlan(42, spec), SiteQueueAcquire, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i+1)
		}
	}
	var hitsA int
	for _, v := range a {
		if v {
			hitsA++
		}
	}
	if hitsA == 0 || hitsA == len(a) {
		t.Fatalf("Prob=0.4 injected %d/%d times; PRNG looks broken", hitsA, len(a))
	}
	c := fireAll(NewPlan(43, spec), SiteQueueAcquire, 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical 200-hit schedule")
	}
}

func TestKindPanicPanicsWithTypedError(t *testing.T) {
	p := NewPlan(1, Spec{{Site: SiteStreamDispatch, Kind: KindPanic}})
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("Fire did not panic for KindPanic")
		}
		fe, ok := v.(*Error)
		if !ok {
			t.Fatalf("panic value is %T, want *Error", v)
		}
		if fe.Site != SiteStreamDispatch || fe.Kind != KindPanic || fe.Hit != 1 {
			t.Fatalf("panic value = %+v", fe)
		}
	}()
	p.Fire(SiteStreamDispatch)
}

func TestKindCancelWrapsContextCanceled(t *testing.T) {
	p := NewPlan(1, Spec{{Site: SiteStreamDispatch, Kind: KindCancel}})
	err := p.Fire(SiteStreamDispatch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("KindCancel error %v does not wrap context.Canceled", err)
	}
}

func TestKindDelayStallsAndSucceeds(t *testing.T) {
	p := NewPlan(1, Spec{{Site: SiteMemAccess, Kind: KindDelay, Delay: 5 * time.Millisecond}})
	start := time.Now()
	if err := p.Fire(SiteMemAccess); err != nil {
		t.Fatalf("KindDelay returned error %v", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("delay fault returned after %v, want >= 5ms", d)
	}
}

func TestMustFirePanicsOnError(t *testing.T) {
	p := NewPlan(1, Spec{{Site: SiteMemAccess, Kind: KindError}})
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("MustFire did not panic for an error-class fault")
		}
		err, ok := v.(error)
		if !ok || !IsInjected(fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", err))) {
			t.Fatalf("MustFire panic value %v (%T) is not an injected fault seen through wrapping", v, v)
		}
		if IsInjected(errors.New("plain")) {
			t.Fatal("a plain error classified as injected")
		}
	}()
	p.MustFire(SiteMemAccess)
}

func TestDisarmStopsInjection(t *testing.T) {
	p := NewPlan(1, Spec{{Site: SiteCacheFill, Kind: KindError}})
	if p.Fire(SiteCacheFill) == nil {
		t.Fatal("armed plan did not inject")
	}
	p.Disarm()
	for i := 0; i < 5; i++ {
		if err := p.Fire(SiteCacheFill); err != nil {
			t.Fatalf("disarmed plan injected: %v", err)
		}
	}
	if n := p.Injected(SiteCacheFill); n != 1 {
		t.Fatalf("Injected = %d after disarm, want 1", n)
	}
}

func TestNilPlanNeverFires(t *testing.T) {
	var p *Plan
	if err := p.Fire(SiteCacheFill); err != nil {
		t.Fatalf("nil plan fired: %v", err)
	}
	p.MustFire(SiteMemAccess)
	p.Disarm()
	if p.Hits(SiteCacheFill) != 0 || p.Injected(SiteCacheFill) != 0 || p.TotalInjected() != 0 {
		t.Fatal("nil plan reported non-zero counters")
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	p := NewPlan(1, Spec{
		{Site: SiteCacheFill, Kind: KindError, Hits: []uint64{1}},
		{Site: SiteCacheFill, Kind: KindCancel},
	})
	err := p.Fire(SiteCacheFill)
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != KindError {
		t.Fatalf("hit 1: got %v, want the first rule's error", err)
	}
	err = p.Fire(SiteCacheFill)
	if !errors.As(err, &fe) || fe.Kind != KindCancel {
		t.Fatalf("hit 2: got %v, want the second rule's cancellation", err)
	}
	if got := p.TotalInjected(); got != 2 {
		t.Fatalf("TotalInjected = %d, want 2", got)
	}
}

func TestNewPlanRejectsMalformedRules(t *testing.T) {
	for name, spec := range map[string]Spec{
		"no site":      {{Kind: KindError}},
		"invalid kind": {{Site: SiteCacheFill}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewPlan did not panic", name)
				}
			}()
			NewPlan(1, spec)
		}()
	}
}
