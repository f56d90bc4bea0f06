// Command perfbench is the repository's benchmark. It runs one workload in
// process for a fixed time, checks every timed operation against an
// untimed Workers-1 reference, and prints one JSON result line last:
//
//	perfbench --workload paper-report --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//	paper-report     the full experiment registry at paper scale, rendered
//	fleet-scale      a 20M-CPU fleet screened under every strategy
//	serve-campaigns  104 service campaigns beside an open-loop status reader
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the separate
// traced run: it reports the per-layer metrics and writes its spans as JSON
// lines under --trace-dir. perfbench/run.sh builds and runs the command;
// perfbench/README.md says which end-to-end metric each layer should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"farron/internal/engine/wallclock"
)

// config is one benchmark run.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	traceDir  string
	committed []byte // committed paper report, the seed-1 reference's expected bytes
	sz        sizes
}

const minOps = 5 // operations a run times at least

// workloadNames lists the workloads in the order the traced run sets them up.
var workloadNames = []string{"paper-report", "fleet-scale", "serve-campaigns"}

func main() {
	var (
		workload   = flag.String("workload", "", "paper-report, fleet-scale or serve-campaigns")
		seed       = flag.Uint64("seed", 1, "simulation seed the workload's inputs derive from")
		seconds    = flag.Int("seconds", 10, "seconds of operations to time")
		trace      = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
		traceDir   = flag.String("trace-dir", ".bench_build/perfbench", "directory the traced run writes its span log to")
		reportPath = flag.String("report", "bench_report.txt", "committed paper report; at seed 1 the reference must equal it")
	)
	flag.Parse()
	runtime.GOMAXPROCS(2)

	cfg := config{
		workload: *workload, seed: *seed, seconds: float64(*seconds), trace: *trace == 1,
		traceDir: *traceDir, sz: paperSizes(),
	}
	if err := run(cfg, *reportPath); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config, reportPath string) error {
	if cfg.seed == 1 {
		b, err := os.ReadFile(reportPath)
		if err != nil {
			return err
		}
		cfg.committed = b
	}
	res, err := measure(cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// measure runs the benchmark and returns its result.
func measure(cfg config) (*result, error) {
	if cfg.trace {
		return measureTraced(cfg)
	}
	ws, err := instances(cfg.workload, cfg.seed, cfg.sz, cfg.committed)
	if err != nil {
		return nil, err
	}
	setup, err := timeSetups(cfg, ws)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	m := newMeter(nil, cfg.seconds, minOps)
	if err := timeOps(ws, m); err != nil {
		return nil, err
	}
	res := newResult(m)
	res.endToEnd(setup, m)
	walls := m.column(func(s sample) float64 { return s.wall })
	q := tailQuantile(len(walls))
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d operations over %d instance(s); op_s median %.4g s, p%.0f %.4g s; %d of %d attempted failed\n",
		cfg.workload, cfg.seed, len(walls), len(ws), median(walls), q*100, quantile(walls, q), res.Failed, res.Attempted)
	return res, res.check()
}

// timeSetups times three set-ups of every instance and returns the times.
// A context's cost depends on the simulation seed (6 to 13 ms over seeds 1
// to 6 on a 2-vCPU Xeon virtual machine), so set-ups are timed at as many
// simulation seeds as a paper report runs: a fleet or service run adds
// throwaway instances at n + j×seedStride, j = 1, 2, ….
// Every set-up but an instance's last is released before the next is timed,
// and the throwaways are released too, so the instances' operations run on
// their last set-up.
func timeSetups(cfg config, ws []workload) ([]float64, error) {
	sw := slices.Clone(ws)
	for j := 1; len(sw) < cfg.sz.paperSeeds; j++ {
		extra, err := newWorkloads(cfg.workload, cfg.seed+uint64(j)*seedStride, cfg.sz, nil)
		if err != nil {
			return nil, err
		}
		sw = append(sw, extra[0])
	}
	times := make([]float64, 3*len(sw))
	for i := range times {
		w := sw[i%len(sw)]
		runtime.GC()
		start := wallclock.Start()
		if err := w.setup(nil, -1); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times[i] = start.Seconds()
		if i < 2*len(sw) || i%len(sw) >= len(ws) {
			w.release()
		}
	}
	return times, nil
}

// measureTraced is the traced run. Every workload's instances are
// referenced and set up. The selected workload times half the budget
// untraced and half traced (the pair gives trace.overhead); then one traced
// round of each other workload's first instance, the registry entries in
// isolation and the layer probes fill in the layers that workload does not
// reach, and the known-defect probe counts the seeds the registry fails at.
func measureTraced(cfg config) (*result, error) {
	tr := newTracer()
	var self, others []workload
	var paper *paperReport
	for _, name := range workloadNames {
		sz := cfg.sz
		if name != cfg.workload {
			sz.paperSeeds = 1
		}
		ws, err := instances(name, cfg.seed, sz, cfg.committed)
		if err != nil {
			return nil, err
		}
		if name == cfg.workload {
			self = ws
		} else {
			others = append(others, ws[0])
		}
		if p, ok := ws[0].(*paperReport); ok {
			paper = p
		}
		for _, w := range ws {
			sp := tr.begin("setup", -1, tr.op())
			err = w.setup(tr, sp)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s setup: %w", name, err)
			}
		}
	}
	if self == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}

	runtime.GC()
	plain := newMeter(nil, cfg.seconds/2, minOps)
	if err := timeOps(self, plain); err != nil {
		return nil, err
	}
	runtime.GC()
	traced := newMeter(tr, cfg.seconds/2, minOps)
	if err := timeOps(self, traced); err != nil {
		return nil, err
	}
	meters := []*meter{plain, traced}
	for _, w := range others {
		m := newMeter(tr, 0, 1)
		if err := w.step(m); err != nil {
			return nil, err
		}
		meters = append(meters, m)
	}
	entries := newMeter(tr, 0, 1)
	paper.entries(entries)
	meters = append(meters, entries)
	if err := probeLayers(tr, self[0].ctx(), cfg.sz); err != nil {
		return nil, err
	}
	unsupported, err := probeKnownDefect(tr, cfg.sz)
	if err != nil {
		return nil, err
	}
	tr.finish()
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.writeJSONL(path); err != nil {
		return nil, err
	}

	res := newResult(meters...)
	res.perLayer(tr, paper.exps, cfg.sz, plain, traced)
	res.add("gate.unsupported_seeds", "count", float64(unsupported))
	return res, res.check()
}
