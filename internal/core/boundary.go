// Package core implements Farron, the paper's SDC mitigation approach
// (Section 7): prioritized SDC testing for highly reproducible ("apparent")
// defects, adaptive temperature-boundary control with workload backoff for
// less reproducible ("tricky") defects, fine-grained processor
// decommission, and a reliable resource pool — plus the Alibaba Cloud
// baseline strategy it is evaluated against.
package core

import "time"

// Action is the boundary controller's verdict for one temperature sample.
type Action int

const (
	// ActionNone: temperature acceptable, keep running.
	ActionNone Action = iota
	// ActionBackoff: throttle the workload until temperature drops below
	// the boundary.
	ActionBackoff
	// ActionCooling: engage the cooling device (separate, higher
	// boundary; "the former has no impact on application performance,
	// but it is not widely applicable in Alibaba Cloud yet").
	ActionCooling
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionBackoff:
		return "backoff"
	case ActionCooling:
		return "cooling"
	default:
		return "unknown"
	}
}

// BoundaryConfig configures the adaptive temperature boundary.
type BoundaryConfig struct {
	// InitialC is the starting workload-backoff boundary.
	InitialC float64
	// CoolingC is the fixed cooling-device boundary (above the backoff
	// boundary; reaching it means backoff failed to contain heat).
	CoolingC float64
	// Window is the number of recent temperature records examined.
	Window int
	// RaiseStepC is how far the boundary rises per adaptation.
	RaiseStepC float64
	// MaxC caps the adaptive boundary (never learn past the processor's
	// allowable range).
	MaxC float64
}

// DefaultBoundaryConfig matches the evaluation setup: the boundary starts
// just above idle temperature and is allowed to learn up to 75 ℃; the
// paper's evaluation kept the protected workload under 59 ℃.
func DefaultBoundaryConfig() BoundaryConfig {
	return BoundaryConfig{
		InitialC:   50,
		CoolingC:   85,
		Window:     60,
		RaiseStepC: 1,
		MaxC:       75,
	}
}

// Boundary is Farron's adaptive temperature boundary (Section 7.1). It
// tracks a sliding window of temperature records. When more than half the
// window exceeds the current boundary, the temperature is evidently normal
// for the application, so the boundary rises (avoiding excessive backoff —
// application performance has the highest priority). Otherwise a sample
// above the boundary is an excursion and triggers workload backoff until
// the temperature is back below the boundary.
// During the first full window (the warm-up), only the cooling boundary is
// enforced: backing off before the controller has seen the application's
// steady temperature would pin the workload at the initial boundary and
// prevent any learning.
type Boundary struct {
	cfg     BoundaryConfig
	window  []float64
	next    int
	filled  bool
	current float64
	raises  int
	// exceed counts the window's recorded samples above current. Record
	// keeps it running — minus the evicted sample, plus the new one — and
	// recounts only when current moves, at most (MaxC−InitialC)/RaiseStepC
	// times.
	exceed int
}

// NewBoundary creates a boundary controller.
func NewBoundary(cfg BoundaryConfig) *Boundary {
	if cfg.Window <= 0 {
		panic("core: boundary window must be positive")
	}
	if cfg.CoolingC < cfg.InitialC {
		panic("core: cooling boundary below backoff boundary")
	}
	return &Boundary{
		cfg:     cfg,
		window:  make([]float64, cfg.Window),
		current: cfg.InitialC,
	}
}

// Current returns the present workload-backoff boundary.
func (b *Boundary) Current() float64 { return b.current }

// Raises returns how many times the boundary has adapted upward.
func (b *Boundary) Raises() int { return b.raises }

// Record ingests one temperature sample and returns the action to take.
func (b *Boundary) Record(tempC float64) Action {
	if b.filled && b.window[b.next] > b.current {
		b.exceed-- // the evicted sample
	}
	b.window[b.next] = tempC
	if tempC > b.current {
		b.exceed++
	}
	b.next++
	if b.next == len(b.window) {
		b.next = 0
		b.filled = true
	}

	n := b.next
	if b.filled {
		n = len(b.window)
	}

	// More than half the window above the boundary: this is the
	// application's normal operating temperature — learn it.
	if b.exceed*2 > n && b.current < b.cfg.MaxC {
		old := b.current
		b.current = min(b.current+b.cfg.RaiseStepC, b.cfg.MaxC)
		b.raises++
		// Re-examine with the raised boundary; a single raise step is
		// at most one adaptation per sample by design (iterative
		// learning, Section 7.1).
		if b.current != old {
			b.recount(n)
		}
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

// recount recomputes exceed over the n recorded samples against current.
func (b *Boundary) recount(n int) {
	b.exceed = 0
	for _, t := range b.window[:n] {
		if t > b.current {
			b.exceed++
		}
	}
}

// WarmedUp reports whether the controller has seen a full window and is
// enforcing the backoff boundary.
func (b *Boundary) WarmedUp() bool { return b.filled }

// TestDurationScale maps the learned boundary to a regular-test duration
// multiplier (Section 7.1: a lower temperature boundary is allocated less
// test duration, because settings whose minimum triggering temperature lies
// above the boundary can never fire in production and need no test
// coverage). The scale is 1 at the default initial boundary and grows
// linearly to 2 at the maximum.
func (b *Boundary) TestDurationScale() float64 {
	span := b.cfg.MaxC - b.cfg.InitialC
	if span <= 0 {
		return 1
	}
	return 1 + (b.current-b.cfg.InitialC)/span
}

// BackoffStats accumulates workload-backoff accounting during online
// operation (Table 4's temperature-control overhead).
type BackoffStats struct {
	// Total time the workload spent backed off, and total observed time.
	BackoffTime, TotalTime time.Duration
	// Events counts distinct backoff activations.
	Events int
	// MaxTempC is the hottest sample observed.
	MaxTempC  float64
	inBackoff bool
}

// Observe folds one sample interval into the stats.
func (s *BackoffStats) Observe(action Action, dt time.Duration, tempC float64) {
	s.TotalTime += dt
	if tempC > s.MaxTempC {
		s.MaxTempC = tempC
	}
	if action == ActionBackoff || action == ActionCooling {
		s.BackoffTime += dt
		if !s.inBackoff {
			s.Events++
			s.inBackoff = true
		}
	} else {
		s.inBackoff = false
	}
}

// Overhead returns backoff time over total time.
func (s *BackoffStats) Overhead() float64 {
	if s.TotalTime == 0 {
		return 0
	}
	return s.BackoffTime.Seconds() / s.TotalTime.Seconds()
}

// BackoffSecondsPerHour is the paper's Table-4 unit: seconds of backoff per
// hour of operation (evaluation: 0.864 s/h).
func (s *BackoffStats) BackoffSecondsPerHour() float64 {
	if s.TotalTime == 0 {
		return 0
	}
	return s.BackoffTime.Seconds() / s.TotalTime.Hours()
}
