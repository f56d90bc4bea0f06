package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"farron/internal/simrand"
)

func TestBoundaryLearnsNormalTemperature(t *testing.T) {
	b := NewBoundary(DefaultBoundaryConfig())
	start := b.Current()
	// Application normally runs at 58: most samples above the initial
	// 50 boundary, so it must rise past 58 and stop adapting.
	for i := 0; i < 2000; i++ {
		b.Record(58)
	}
	if b.Current() < 58 {
		t.Errorf("boundary = %v, want learned >= 58", b.Current())
	}
	if b.Current() > 62 {
		t.Errorf("boundary = %v, overshot normal temperature", b.Current())
	}
	if b.Raises() == 0 {
		t.Error("no raises recorded")
	}
	if b.Current() <= start {
		t.Error("boundary did not move")
	}
}

func TestBoundaryExcursionTriggersBackoff(t *testing.T) {
	b := NewBoundary(DefaultBoundaryConfig())
	// Learn a normal temperature of ~55.
	for i := 0; i < 2000; i++ {
		b.Record(55)
	}
	learned := b.Current()
	// A rare excursion above the boundary: backoff, not adaptation.
	got := b.Record(learned + 5)
	if got != ActionBackoff {
		t.Errorf("excursion action = %v, want backoff", got)
	}
	// Back under the boundary: no action.
	if got := b.Record(learned - 3); got != ActionNone {
		t.Errorf("normal action = %v", got)
	}
}

func TestBoundaryDoesNotExceedMax(t *testing.T) {
	cfg := DefaultBoundaryConfig()
	cfg.MaxC = 60
	b := NewBoundary(cfg)
	for i := 0; i < 5000; i++ {
		b.Record(80)
	}
	if b.Current() > 60 {
		t.Errorf("boundary %v exceeded max 60", b.Current())
	}
	// Above max the controller keeps backing off rather than adapting.
	if got := b.Record(80); got != ActionBackoff {
		t.Errorf("action at capped boundary = %v", got)
	}
}

func TestBoundaryCoolingAction(t *testing.T) {
	b := NewBoundary(DefaultBoundaryConfig())
	if got := b.Record(90); got != ActionCooling {
		t.Errorf("action at 90 = %v, want cooling", got)
	}
}

func TestBoundaryValidation(t *testing.T) {
	cfg := DefaultBoundaryConfig()
	cfg.Window = 0
	assertPanics(t, func() { NewBoundary(cfg) }, "zero window")
	cfg = DefaultBoundaryConfig()
	cfg.CoolingC = cfg.InitialC - 1
	assertPanics(t, func() { NewBoundary(cfg) }, "cooling below backoff")
}

func assertPanics(t *testing.T, fn func(), name string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

func TestTestDurationScale(t *testing.T) {
	b := NewBoundary(DefaultBoundaryConfig())
	if got := b.TestDurationScale(); got != 1 {
		t.Errorf("initial scale = %v", got)
	}
	for i := 0; i < 5000; i++ {
		b.Record(80) // drive to max
	}
	if got := b.TestDurationScale(); got != 2 {
		t.Errorf("scale at max boundary = %v, want 2", got)
	}
}

func TestBackoffStats(t *testing.T) {
	var s BackoffStats
	tick := 10 * time.Second
	s.Observe(ActionNone, tick, 50)
	s.Observe(ActionBackoff, tick, 62)
	s.Observe(ActionBackoff, tick, 61)
	s.Observe(ActionNone, tick, 55)
	s.Observe(ActionBackoff, tick, 63)
	if s.Events != 2 {
		t.Errorf("events = %d, want 2 activations", s.Events)
	}
	if s.BackoffTime != 30*time.Second {
		t.Errorf("backoff time = %v", s.BackoffTime)
	}
	if s.MaxTempC != 63 {
		t.Errorf("max temp = %v", s.MaxTempC)
	}
	wantOv := 30.0 / 50.0
	if got := s.Overhead(); got != wantOv {
		t.Errorf("overhead = %v, want %v", got, wantOv)
	}
	// 30 s of backoff in 50 s → 2160 s/h.
	if got := s.BackoffSecondsPerHour(); got < 2159 || got > 2161 {
		t.Errorf("s/h = %v", got)
	}
}

func TestBackoffStatsEmpty(t *testing.T) {
	var s BackoffStats
	if s.Overhead() != 0 || s.BackoffSecondsPerHour() != 0 {
		t.Error("empty stats should be zero")
	}
}

func TestActionString(t *testing.T) {
	if ActionNone.String() != "none" || ActionBackoff.String() != "backoff" || ActionCooling.String() != "cooling" {
		t.Error("action strings wrong")
	}
}

// naiveBoundary is the rescanning Boundary.Record: it counts the window's
// exceedances afresh on every sample. It is the oracle the running count
// is diffed against.
type naiveBoundary struct {
	cfg     BoundaryConfig
	window  []float64
	next    int
	filled  bool
	current float64
	raises  int
}

func (b *naiveBoundary) Record(tempC float64) Action {
	b.window[b.next] = tempC
	b.next++
	if b.next == len(b.window) {
		b.next = 0
		b.filled = true
	}
	n := b.next
	if b.filled {
		n = len(b.window)
	}
	exceed := 0
	for i := 0; i < n; i++ {
		if b.window[i] > b.current {
			exceed++
		}
	}
	if exceed*2 > n && b.current < b.cfg.MaxC {
		b.current = min(b.current+b.cfg.RaiseStepC, b.cfg.MaxC)
		b.raises++
	}
	switch {
	case tempC > b.cfg.CoolingC:
		return ActionCooling
	case tempC > b.current && b.filled:
		return ActionBackoff
	default:
		return ActionNone
	}
}

func TestBoundaryMatchesRescanOracle(t *testing.T) {
	small := DefaultBoundaryConfig()
	small.Window = 7
	fine := DefaultBoundaryConfig()
	fine.RaiseStepC = 0.25
	flat := DefaultBoundaryConfig()
	flat.RaiseStepC = 0 // raises never move the boundary
	cfgs := []BoundaryConfig{DefaultBoundaryConfig(), small, fine, flat}

	rng := simrand.New(11)
	type trace struct {
		name  string
		temps []float64
	}
	var traces []trace
	for _, spread := range []float64{2, 8, 20} {
		var tr []float64
		for i := 0; i < 5000; i++ {
			tr = append(tr, rng.Norm(58, spread))
		}
		traces = append(traces, trace{fmt.Sprintf("random±%v", spread), tr})
	}
	var ramp []float64
	for i := 0; i < 4000; i++ {
		// Up from 40 to 90 and back down, with jitter and repeats of
		// the boundary's own values.
		x := float64(i % 2000)
		if i >= 2000 {
			x = 2000 - x
		}
		ramp = append(ramp, 40+x/40+math.Round(rng.Range(-1, 1)))
	}
	traces = append(traces, trace{"ramp", ramp})

	for ci, cfg := range cfgs {
		for _, tr := range traces {
			b := NewBoundary(cfg)
			o := &naiveBoundary{cfg: cfg, window: make([]float64, cfg.Window), current: cfg.InitialC}
			for i, temp := range tr.temps {
				got, want := b.Record(temp), o.Record(temp)
				if got != want || b.Current() != o.current || b.Raises() != o.raises {
					t.Fatalf("cfg %d %s sample %d (%.3f): action %v current %v raises %d, oracle %v %v %d",
						ci, tr.name, i, temp, got, b.Current(), b.Raises(), want, o.current, o.raises)
				}
			}
		}
	}
}
