package main

import (
	"fmt"
	"math"

	"farron/internal/engine"
	"farron/internal/fleet"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	unmeasured []string // metrics whose value is not a finite number
}

func newResult(meters ...*meter) *result {
	r := &result{Metrics: map[string]metric{}}
	for _, m := range meters {
		r.Attempted += m.attempted
		r.Failed += m.failed
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

func (r *result) add(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.unmeasured = append(r.unmeasured, name)
	}
}

// check rejects a value that is not a finite number: a metric that could
// not be measured fails the run instead of being printed.
func (r *result) check() error {
	if len(r.unmeasured) > 0 {
		return fmt.Errorf("metrics not measured: %v", r.unmeasured)
	}
	return nil
}

// errorRate is the share of attempted operations that failed.
func (r *result) errorRate() float64 { return float64(r.Failed) / float64(r.Attempted) }

const mb = 1e6

// endToEnd adds the end-to-end metrics of an untraced run.
func (r *result) endToEnd(setup []float64, m *meter) {
	r.add("setup_s", "s", median(setup))
	r.add("op_s", "s", median(m.column(func(s sample) float64 { return s.wall })))
	r.add("cpu_s_per_op", "s", median(m.column(func(s sample) float64 { return s.cpu })))
	r.add("mallocs_per_op", "count", median(m.column(func(s sample) float64 { return float64(s.mallocs) })))
	r.add("alloc_mb_per_op", "MB", median(m.column(func(s sample) float64 { return float64(s.bytes) / mb })))
}

// experimentMetrics names the registry entries that get their own
// experiments.<name>_s metric; every other entry adds to experiments.other_s.
var experimentMetrics = []struct{ metric, entry string }{
	{"table4", "Table 4"},
	{"figure11", "Figure 11"},
	{"lifecycle", "Lifecycle"},
	{"ablation", "Ablation"},
	{"sweep_baseline", "Strategy sweep [baseline]"},
	{"figure4", "Figure 4"},
	{"figure8", "Figure 8"},
	{"table1", "Table 1"},
	{"table2", "Table 2"},
}

// perLayer adds the per-layer metrics of a traced run: plain and traced are
// the untraced and traced halves of the workload's own operations, tr holds
// every span, including the other workloads' traced operations, the
// isolated registry entries and the layer probes.
func (r *result) perLayer(tr *tracer, exps []engine.Experiment, sz sizes, plain, traced *meter) {
	r.add("engine.ctx_s", "s", median(tr.durations("engine.ctx")))

	// Registry entries in isolation: an entry's own metric is its self time,
	// which excludes the render child; parallel_gain compares their full
	// durations, render included, with Runner.Run, which renders too.
	entrySecs := map[string]float64{}
	total, isolated := 0.0, 0.0
	groupMallocs := map[string]float64{}
	entriesOp := -1
	for _, e := range exps {
		spans := tr.named("experiments." + e.Name)
		if len(spans) == 0 {
			entrySecs[e.Name] = math.NaN()
			continue
		}
		entriesOp = spans[0].Op
		entrySecs[e.Name] = spans[0].Self
		total += spans[0].Self
		isolated += spans[0].End - spans[0].Start
		for _, g := range e.Groups {
			groupMallocs[g] += spans[0].Attrs["mallocs"]
		}
	}
	other := total
	for _, x := range experimentMetrics {
		r.add("experiments."+x.metric+"_s", "s", entrySecs[x.entry])
		other -= entrySecs[x.entry]
	}
	r.add("experiments.other_s", "s", other)
	r.add("experiments.fleet_mallocs", "count", groupMallocs[engine.GroupFleet])
	r.add("experiments.study_mallocs", "count", groupMallocs[engine.GroupStudy])
	r.add("experiments.mitigation_mallocs", "count", groupMallocs[engine.GroupMitigation])
	// The Runner.Run of the same operation, on the same context.
	runSecs := math.NaN()
	for _, s := range tr.named("engine.run") {
		if s.Op == entriesOp {
			runSecs = s.End - s.Start
		}
	}
	r.add("engine.parallel_gain", "ratio", isolated/runSecs)
	r.add("report.render_s", "s", sum(tr.durations("report.render"))+median(tr.durations("report.write")))

	// Layer probes: per-call time and mallocs.
	perCall := func(name string, scale float64) (float64, float64) {
		calls := sum(tr.attrs(name, "calls"))
		return sum(tr.durations(name)) * scale / calls, sum(tr.attrs(name, "mallocs")) / calls
	}
	r.add("testkit.suite_s", "s", sum(tr.durations("testkit.suite")))
	r.add("testkit.calibrate_s", "s", sum(tr.durations("testkit.calibrate")))
	runUs, runMallocs := perCall("testkit.run", 1e6)
	r.add("testkit.run_us", "us", runUs)
	r.add("testkit.run_mallocs", "count", runMallocs)
	simH := sz.scale.Online.Hours()
	onlineMs, onlineMallocs := perCall("core.online", 1e3)
	r.add("core.online_ms_per_sim_h", "ms", onlineMs/simH)
	r.add("core.online_mallocs_per_sim_h", "count", onlineMallocs/simH)
	roundMs, _ := perCall("core.regular_round", 1e3)
	r.add("core.regular_round_ms", "ms", roundMs)
	for _, p := range []struct{ metric, span string }{
		{"defect.rate_ns", "defect.rate"},
		{"thermal.step_ns", "thermal.step"},
		{"simrand.draw_ns", "simrand.draw"},
		{"simrand.derive_ns", "simrand.derive"},
	} {
		ns, _ := perCall(p.span, 1e9)
		r.add(p.metric, "ns", ns)
	}

	// Fleet: simulator construction and each strategy's pass.
	r.add("fleet.new_simulator_s", "s", median(tr.durations("fleet.new")))
	for _, s := range fleet.Strategies() {
		name := "fleet." + s + ".run"
		faulty := median(tr.attrs(name, "faulty"))
		r.add("fleet."+s+".run_s", "s", median(tr.durations(name)))
		r.add("fleet."+s+".mallocs_per_faulty", "count", median(tr.attrs(name, "mallocs"))/faulty)
		r.add("fleet."+s+".detect_yield", "ratio", median(tr.attrs(name, "detected"))/faulty)
	}
	screenUs, _ := perCall("fleet.cpu_screen", 1e6)
	r.add("fleet.cpu_screen_us", "us", screenUs)

	// Service: construction, campaign steps, history, status reads.
	steps := tr.durations("serve.step")
	r.add("serve.new_s", "s", median(tr.durations("serve.new")))
	r.add("serve.step_ms_p50", "ms", median(steps)*1e3)
	r.add("serve.step_ms_tail", "ms", quantile(steps, tailQuantile(len(steps)))*1e3)
	r.add("serve.history_json_ms", "ms", median(tr.durations("serve.history_json"))*1e3)
	lat := tr.attrs("serve.read", "latency_s")
	late := tr.attrs("serve.read", "late_s")
	r.add("serve.reads_done", "count", float64(len(lat)))
	r.add("serve.read_p50_us", "us", median(lat)*1e6)
	r.add("serve.read_tail_us", "us", quantile(lat, tailQuantile(len(lat)))*1e6)
	r.add("serve.read_late_us", "us", quantile(late, tailQuantile(len(late)))*1e6)

	// Runtime counters around the workload's untraced operations, and
	// what tracing cost on its traced ones.
	r.add("runtime.peak_heap_mb", "MB", maxOf(plain.column(func(s sample) float64 { return float64(s.heapInuse) / mb })))
	ops := float64(len(plain.samples))
	r.add("runtime.gc_cycles_per_op", "count", sum(plain.column(func(s sample) float64 { return float64(s.gcs) }))/ops)
	r.add("runtime.gc_pause_ms_per_op", "ms", sum(plain.column(func(s sample) float64 { return float64(s.gcPauseNs) }))/1e6/ops)
	wall := func(s sample) float64 { return s.wall }
	r.add("trace.overhead", "ratio", median(traced.column(wall))/median(plain.column(wall))-1)
	r.add("error_rate", "ratio", r.errorRate())
}
