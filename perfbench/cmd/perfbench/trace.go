package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"farron/internal/engine/wallclock"
)

// span is one timed interval around a call into a layer's public API.
// Start and End are seconds since the tracer was created; Op groups the
// spans of one operation (one report, one fleet pass, one campaign, one
// status read); Parent is the enclosing span's index, -1 for a root.
type span struct {
	Name   string             `json:"name"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"`
	Start  float64            `json:"start_s"`
	End    float64            `json:"end_s"`
	Self   float64            `json:"self_s"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	closed bool
}

// tracer keeps every span of a traced run in memory and writes them out as
// JSON lines when the run ends. A nil *tracer is the untraced run: every
// method is a no-op, so the measured code path is the same either way.
type tracer struct {
	mu     sync.Mutex
	clock  wallclock.Stamp
	spans  []span
	nextOp int
}

func newTracer() *tracer { return &tracer{clock: wallclock.Start()} }

// op returns a fresh operation id (0 on the untraced run).
func (t *tracer) op() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// begin opens a span and returns its index (-1 on the untraced run).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := t.clock.Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: now})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.clock.Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].closed = true
}

// attr attaches a count measured at the span's boundary.
func (t *tracer) attr(id int, key string, v float64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// finish computes every span's self time: its duration minus its child
// spans' durations. A child is always opened and closed on its parent's
// goroutine, one after another, so children never overlap.
func (t *tracer) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		s := &t.spans[i]
		s.Self += s.End - s.Start
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

// named returns the closed spans with the given name, in start order.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.closed {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the closed spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, s.End-s.Start)
	}
	return out
}

// attrs returns one attribute of the closed spans named name.
func (t *tracer) attrs(name, key string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, s.Attrs[key])
	}
	return out
}

// writeJSONL writes one span per line to path, creating its directory.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // backstop for error returns; success path closes below
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		line := struct {
			ID int `json:"id"`
			span
		}{i, s}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
