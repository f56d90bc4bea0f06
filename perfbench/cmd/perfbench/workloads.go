package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"farron/internal/engine"
	"farron/internal/engine/wallclock"
	"farron/internal/experiments"
	"farron/internal/fleet"
	"farron/internal/serve"
)

// sizes are the workloads' input sizes. paperSizes is the benchmark; the
// benchmark's own tests run the same code on smaller inputs.
type sizes struct {
	scale      engine.Scale // paper report and service scale
	paperSeeds int          // simulation seeds per paper-report run
	fleetCPUs  int          // fleet-scale population
	campaigns  int          // campaigns per service lifetime
	readEvery  float64      // seconds between status reads (open loop)
}

func paperSizes() sizes {
	return sizes{scale: engine.DefaultScale(), paperSeeds: 16, fleetCPUs: 20_000_000, campaigns: 104, readEvery: 1.0 / 200}
}

// workload is one benchmark workload at one simulation seed. reference
// runs one untimed Workers-1 operation on a context of its own, which the
// gate compares every timed operation with; it is also the warm-up. setup
// builds what the timed operations run on (measure times it); release drops
// it, so that a repeated set-up is timed without the previous one still
// live on the heap. step times one round of operations through the meter:
// one report, one four-strategy fleet pass, or one service lifetime of
// campaigns.
type workload interface {
	reference() error
	setup(tr *tracer, parent int) error
	release()
	step(m *meter) error
	ctx() *engine.Ctx
}

// seedStride separates the simulation seeds a fleet or service run sets
// up beside its own (see timeSetups).
const seedStride = 1_000_000

// newWorkloads returns a workload's instances for a benchmark seed. The
// paper report's cost depends on the simulation seed (the Observation 10
// anomaly search and the Section 5 separation probe vary several-fold), so
// every paper-report run renders it at the same sz.paperSeeds simulation
// seeds, 1 to sz.paperSeeds; the benchmark seed picks which of them comes
// first. None of seeds 1 to 16 hits the registry's known defect (see
// knownDefectSeeds). Seed 1 is the committed report's. The fleet and service cost
// barely depends on the seed, so they run at the benchmark seed alone.
func newWorkloads(name string, seed uint64, sz sizes, committed []byte) ([]workload, error) {
	switch name {
	case "paper-report":
		n := uint64(sz.paperSeeds)
		ws := make([]workload, n)
		for j := range ws {
			s := 1 + (seed-1+uint64(j))%n
			w := &paperReport{seed: s, sz: sz, exps: experiments.Registry()}
			if s == 1 {
				w.committed = committed
			}
			ws[j] = w
		}
		return ws, nil
	case "fleet-scale":
		return []workload{&fleetScale{seed: seed, sz: sz}}, nil
	case "serve-campaigns":
		return []workload{&serveCampaigns{seed: seed, sz: sz}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-report, fleet-scale or serve-campaigns)", name)
}

// instances returns a workload's instances for a benchmark seed with their
// references run. A reference that fails fails the run.
func instances(name string, seed uint64, sz sizes, committed []byte) ([]workload, error) {
	ws, err := newWorkloads(name, seed, sz, committed)
	if err != nil {
		return nil, err
	}
	for _, err := range references(ws) {
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", name, err)
		}
	}
	return ws, nil
}

// timeOps steps the instances in turn until the meter is done, checking
// only after a full pass over them, so every instance is timed equally
// often and the mix of operations behind a median does not depend on how
// fast they run.
func timeOps(ws []workload, m *meter) error {
	for i := 0; i%len(ws) != 0 || !m.done(); i++ {
		if err := ws[i%len(ws)].step(m); err != nil {
			return err
		}
	}
	return nil
}

// references runs the instances' references two at a time: each is a
// Workers-1 run, so two of them fill the two cores without changing any
// output. It returns each instance's error.
func references(ws []workload) []error {
	errs := make([]error, len(ws))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i, w := range ws {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.reference()
			<-sem
		}()
	}
	wg.Wait()
	return errs
}

// buildCtx is engine.NewCtxWorkers inside an engine.ctx span.
func buildCtx(tr *tracer, parent int, seed uint64, workers int) *engine.Ctx {
	sp := tr.begin("engine.ctx", parent, 0)
	defer tr.end(sp)
	return engine.NewCtxWorkers(seed, workers)
}

// paperReport is `sdcbench -n 1000000`: the whole registry through
// engine.Runner.Run at Workers 2, rendered with engine.WriteSections.
type paperReport struct {
	seed      uint64
	sz        sizes
	committed []byte // the committed report the seed-1 reference must equal; nil skips
	exps      []engine.Experiment
	c         *engine.Ctx
	want      []byte
	wantErr   error
	buf       bytes.Buffer
}

func (w *paperReport) ctx() *engine.Ctx { return w.c }

func (w *paperReport) setup(tr *tracer, parent int) error {
	w.c = buildCtx(tr, parent, w.seed, 2)
	return nil
}

func (w *paperReport) release() { w.c = nil }

// render runs the registry and writes the report into w.buf.
func (w *paperReport) render(tr *tracer, c *engine.Ctx, parent, op int) ([]byte, error) {
	sp := tr.begin("engine.run", parent, op)
	sections, _, err := engine.NewRunnerCtx(c, engine.RunOptions{}).Run(w.exps, w.sz.scale)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("report.write", parent, op)
	defer tr.end(sp)
	w.buf.Reset()
	err = engine.WriteSections(&w.buf, sections, true)
	return w.buf.Bytes(), err
}

func (w *paperReport) reference() error {
	out, err := w.render(nil, engine.NewCtxWorkers(w.seed, 1), -1, 0)
	if err != nil {
		return err
	}
	w.want = bytes.Clone(out)
	if w.committed != nil {
		if err := gateReport(w.committed, w.want); err != nil {
			w.wantErr = fmt.Errorf("committed report: %w", err)
		}
	}
	return nil
}

func (w *paperReport) step(m *meter) error {
	var got []byte
	m.op("paper-report", func(parent, op int) error {
		var err error
		got, err = w.render(m.tr, w.c, parent, op)
		return err
	}, func() error {
		if w.wantErr != nil {
			return w.wantErr
		}
		return gateReport(w.want, got)
	})
	return nil
}

// entries times the registry two ways under one operation id: once
// through Runner.Run (an engine.run span) and then entry by entry in
// isolation under experiments.<name> spans, with Result.Render in a
// report.render child. Both reports are gated like a timed operation.
func (w *paperReport) entries(m *meter) {
	tr := m.tr
	op := tr.op()
	got, err := w.render(tr, w.c, -1, op)
	if err == nil {
		err = gateReport(w.want, got)
	}
	m.count(err)

	sections := make([]engine.Section, 0, len(w.exps))
	var ms runtime.MemStats
	for _, e := range w.exps {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		sp := tr.begin("experiments."+e.Name, -1, op)
		res, err := e.Run(w.c, w.sz.scale)
		runtime.ReadMemStats(&ms)
		tr.attr(sp, "mallocs", float64(ms.Mallocs-m0))
		if err != nil {
			tr.end(sp)
			m.count(fmt.Errorf("%s: %w", e.Name, err))
			return
		}
		rs := tr.begin("report.render", sp, op)
		body := res.Render()
		tr.end(rs)
		tr.end(sp)
		sections = append(sections, engine.Section{Name: e.Name, Body: body})
	}
	var buf bytes.Buffer
	err = engine.WriteSections(&buf, sections, true)
	if err == nil {
		err = gateReport(w.want, buf.Bytes())
	}
	if err != nil {
		err = fmt.Errorf("isolated entries: %w", err)
	}
	m.count(err)
}

// fleetScale is fleet.Simulator.Run over a 20M-CPU fleet for every
// screening strategy at Workers 2; one operation is the four-strategy pass.
type fleetScale struct {
	seed uint64
	sz   sizes
	c    *engine.Ctx
	// next holds the simulators for the next pass. A simulator is
	// single-use (silifuzz's corpus evolves during Run), so each pass gets
	// fresh ones, built outside the timed operation.
	next []*fleet.Simulator
	want []fleetCounts
}

func (w *fleetScale) ctx() *engine.Ctx { return w.c }

func (w *fleetScale) setup(tr *tracer, parent int) error {
	w.c = buildCtx(tr, parent, w.seed, 2)
	var err error
	w.next, err = w.build(tr, parent, w.c, 2)
	return err
}

func (w *fleetScale) release() { w.c, w.next = nil, nil }

// build makes one simulator per strategy, each inside a fleet.new span.
func (w *fleetScale) build(tr *tracer, parent int, c *engine.Ctx, workers int) ([]*fleet.Simulator, error) {
	var sims []*fleet.Simulator
	for _, s := range fleet.Strategies() {
		cfg := fleet.DefaultConfig()
		cfg.Processors = w.sz.fleetCPUs
		cfg.Seed = w.seed
		cfg.Workers = workers
		cfg.Strategy = s
		sp := tr.begin("fleet.new", parent, 0)
		sim, err := fleet.NewSimulator(cfg, c.Suite)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sims = append(sims, sim)
	}
	return sims, nil
}

// pass runs each simulator once under a fleet.<strategy>.run span that
// carries the faulty and detected counts and, when traced, the mallocs.
func pass(tr *tracer, sims []*fleet.Simulator, parent, op int) []fleetCounts {
	out := make([]fleetCounts, 0, len(sims))
	var ms runtime.MemStats
	for _, sim := range sims {
		var m0 uint64
		if tr != nil {
			runtime.ReadMemStats(&ms)
			m0 = ms.Mallocs
		}
		sp := tr.begin("fleet."+sim.Screener().Strategy()+".run", parent, op)
		res := sim.Run()
		tr.end(sp)
		if tr != nil {
			runtime.ReadMemStats(&ms)
			tr.attr(sp, "mallocs", float64(ms.Mallocs-m0))
			tr.attr(sp, "faulty", float64(res.FaultyTotal))
			tr.attr(sp, "detected", float64(res.DetectedTotal()))
		}
		out = append(out, countsOf(res))
	}
	return out
}

func (w *fleetScale) reference() error {
	sims, err := w.build(nil, -1, engine.NewCtxWorkers(w.seed, 1), 1)
	if err != nil {
		return err
	}
	w.want = pass(nil, sims, -1, 0)
	return nil
}

func (w *fleetScale) step(m *meter) error {
	sims := w.next
	w.next = nil
	if sims == nil {
		var err error
		if sims, err = w.build(m.tr, -1, w.c, 2); err != nil {
			return err
		}
	}
	var got []fleetCounts
	m.op("fleet-pass", func(parent, op int) error {
		got = pass(m.tr, sims, parent, op)
		return nil
	}, func() error { return gateFleet(w.want, got) })
	return nil
}

// serveCampaigns is an in-process serve.Service at paper scale stepping
// 104 campaigns on Workers 1 while an open-loop reader polls the status
// API's snapshots at a fixed rate; one operation is one campaign.
type serveCampaigns struct {
	seed uint64
	sz   sizes
	c    *engine.Ctx
	next *serve.Service // built by setup for the first lifetime
	want []byte         // reference HistoryJSON
}

func (w *serveCampaigns) ctx() *engine.Ctx { return w.c }

func (w *serveCampaigns) setup(tr *tracer, parent int) error {
	w.c = buildCtx(tr, parent, w.seed, 1)
	var err error
	w.next, err = w.newService(tr, parent, w.c)
	return err
}

func (w *serveCampaigns) release() { w.c, w.next = nil, nil }

func (w *serveCampaigns) newService(tr *tracer, parent int, c *engine.Ctx) (*serve.Service, error) {
	sp := tr.begin("serve.new", parent, 0)
	defer tr.end(sp)
	return serve.New(engine.NewRunnerCtx(c, engine.RunOptions{}), serve.Config{Steps: w.sz.campaigns, Scale: w.sz.scale})
}

func (w *serveCampaigns) reference() error {
	svc, err := w.newService(nil, -1, engine.NewCtxWorkers(w.seed, 1))
	if err != nil {
		return err
	}
	for i := 0; i < w.sz.campaigns; i++ {
		if _, err := svc.StepCampaign(); err != nil {
			return err
		}
	}
	w.want, err = svc.HistoryJSON()
	return err
}

// step runs one service lifetime: every campaign is a timed operation, the
// reader runs beside them, and the history is gated once the reader stops.
func (w *serveCampaigns) step(m *meter) error {
	svc := w.next
	w.next = nil
	if svc == nil {
		var err error
		if svc, err = w.newService(m.tr, -1, w.c); err != nil {
			return err
		}
	}
	rd := startReader(svc, m.tr, w.sz.readEvery)
	for i := 0; i < w.sz.campaigns; i++ {
		m.op("serve-campaign", func(parent, op int) error {
			sp := m.tr.begin("serve.step", parent, op)
			defer m.tr.end(sp)
			_, err := svc.StepCampaign()
			return err
		}, nil)
	}
	reads, bad := rd.stop()
	m.attempted += reads
	m.fail(bad, nil) // each bad read was reported as it happened

	sp := m.tr.begin("serve.history_json", -1, m.tr.op())
	got, err := svc.HistoryJSON()
	m.tr.end(sp)
	if err != nil {
		m.fail(w.sz.campaigns, err)
	} else if n, err := gateHistory(w.want, got); n > 0 {
		m.fail(n, err)
	}
	return nil
}

// reader is the open-loop status client: read k is due k×every seconds
// after the reader starts, whether or not earlier reads have finished, and
// is timed from when it was due.
type reader struct {
	stopc      chan struct{}
	done       chan struct{}
	reads, bad int
}

func startReader(svc *serve.Service, tr *tracer, every float64) *reader {
	r := &reader{stopc: make(chan struct{}), done: make(chan struct{})}
	go r.loop(svc, tr, every)
	return r
}

// stop ends the reader, waits for it, and returns its read counts.
func (r *reader) stop() (reads, bad int) {
	close(r.stopc)
	<-r.done
	return r.reads, r.bad
}

func (r *reader) loop(svc *serve.Service, tr *tracer, every float64) {
	defer close(r.done)
	clock := wallclock.Start()
	var g readGate
	for k := 0; ; k++ {
		due := float64(k) * every
		if wait := due - clock.Seconds(); wait > 0 {
			t := time.NewTimer(time.Duration(wait * 1e9))
			select {
			case <-r.stopc:
				t.Stop()
				return
			case <-t.C:
			}
		} else {
			select {
			case <-r.stopc:
				return
			default:
			}
		}
		op := tr.op()
		start := clock.Seconds()
		sp := tr.begin("serve.read", -1, op)
		status, metrics, latest, err := readOnce(svc)
		tr.end(sp)
		tr.attr(sp, "latency_s", clock.Seconds()-due)
		tr.attr(sp, "late_s", start-due)
		r.reads++
		if err == nil {
			err = g.check(status, metrics, latest)
		}
		if err != nil {
			r.bad++
			fmt.Fprintf(os.Stderr, "perfbench: status read failed: %v\n", err)
		}
	}
}

// readOnce is one status read: the three snapshots the HTTP handlers
// serve, each encoded the way they encode it.
func readOnce(svc *serve.Service) (status, metrics, latest []byte, err error) {
	st := svc.StatusSnapshot()
	if status, err = json.MarshalIndent(st, "", "  "); err != nil {
		return nil, nil, nil, err
	}
	if metrics, err = json.MarshalIndent(svc.MetricsSnapshot(), "", "  "); err != nil {
		return nil, nil, nil, err
	}
	if rec, ok := svc.CampaignAt(st.Campaigns - 1); ok {
		if latest, err = json.MarshalIndent(rec, "", "  "); err != nil {
			return nil, nil, nil, err
		}
	}
	return status, metrics, latest, nil
}
