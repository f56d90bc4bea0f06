package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"farron/internal/engine/wallclock"
)

// stampStart captures a wall-clock stamp for run accounting. Wall time is
// operational metadata about a run, never an input to it; all clock access
// goes through the quarantined wallclock package (see its doc).
func stampStart() wallclock.Stamp { return wallclock.Start() }

// ExperimentTiming is the accounting of one registry entry in a run. Name
// is populated for every entry before execution starts, so a failed run
// still attributes every slot; a failed entry carries its error text and a
// cache hit carries the original compute timing with CacheHit set.
type ExperimentTiming struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	OutputBytes int     `json:"output_bytes"`
	// CacheHit marks entries served from the result cache; WallSeconds is
	// then the wall time of the original computation, not of the load.
	CacheHit bool `json:"cache_hit"`
	// Error is the entry's failure, empty on success. Failed entries keep
	// their measured wall time so partial accounting stays meaningful.
	Error string `json:"error,omitempty"`
	// AllocBytes / Mallocs are the process-wide heap-allocation deltas
	// (runtime.MemStats cumulative counters) measured around this entry's
	// in-process execution. Exact at Workers=1; at higher worker budgets
	// concurrent entries' allocations bleed into each other's windows, so
	// the values are attribution hints, not per-entry truth (the run-level
	// totals in RunReport stay exact either way). Zero for cache hits and
	// distributed entries, whose allocations happen elsewhere.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	Mallocs    uint64 `json:"mallocs,omitempty"`
}

// WorkerProc is the accounting of one distributed worker — a fan-out
// subprocess (identified by Pid) or a cluster daemon connection (identified
// by Host): how many registry entries it returned, how many it was assigned
// but lost (crash, timeout, protocol error — the parent recomputes those
// locally), how long it lived and how it exited.
type WorkerProc struct {
	ID int `json:"id"`
	// Pid is the subprocess id (fan-out workers); zero for cluster workers.
	Pid int `json:"pid,omitempty"`
	// Host is the daemon address (cluster workers); empty for subprocesses.
	Host    string `json:"host,omitempty"`
	Entries int    `json:"entries"`
	// Lost counts entries assigned to this worker that never came back;
	// each one is recomputed locally, so losses cost wall time, never
	// correctness.
	Lost        int     `json:"lost,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	// ExitError is the worker's abnormal end (spawn failure, crash, kill),
	// empty for a clean shutdown.
	ExitError string `json:"exit_error,omitempty"`
}

// RunReport is the machine-readable accounting of one Runner.Run call:
// what ran, at what seed and worker budget, how long it took and how much it
// allocated. sdcbench -json writes it to BENCH_<date>.json so the perf
// trajectory of the engine accumulates data points in-tree.
type RunReport struct {
	Schema      string  `json:"schema"`
	Date        string  `json:"date"`
	Seed        uint64  `json:"seed"`
	Workers     int     `json:"workers"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	Quick       bool    `json:"quick"`
	WallSeconds float64 `json:"wall_seconds"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	Mallocs     uint64  `json:"mallocs"`
	// CacheHits / CacheMisses are the run-level result-cache counts (both
	// zero when the run had no cache), so BENCH_*.json shows what caching
	// saved.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// Fanout is the worker-subprocess count of a fan-out run (0 when the
	// run stayed in-process); WorkerProcs carries the per-process
	// accounting and RecomputedShards the entries re-run locally after a
	// worker loss.
	Fanout           int          `json:"fanout,omitempty"`
	RecomputedShards int          `json:"recomputed_shards,omitempty"`
	WorkerProcs      []WorkerProc `json:"worker_procs,omitempty"`
	// StrategyBench is the per-screening-strategy cost accounting parsed
	// from the strategy sweep's registry entries (StrategyRows).
	StrategyBench []StrategyBench    `json:"strategy_bench,omitempty"`
	Experiments   []ExperimentTiming `json:"experiments"`

	start        wallclock.Stamp
	startMemised bool
	startMallocs uint64
	startAlloc   uint64
}

// newRunReport opens the accounting for a run of n experiments.
func newRunReport(ctx *Ctx, n int) *RunReport {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &RunReport{
		Schema:       "farron-bench/v1",
		Date:         wallclock.Date(),
		Seed:         ctx.Seed,
		Workers:      ctx.Workers,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Experiments:  make([]ExperimentTiming, n),
		start:        wallclock.Start(),
		startMemised: true,
		startMallocs: ms.Mallocs,
		startAlloc:   ms.TotalAlloc,
	}
}

// finish closes the accounting: total wall time and allocation deltas over
// the whole run (cumulative counters, so concurrent experiments are summed,
// not sampled).
func (r *RunReport) finish() {
	r.WallSeconds = r.start.Seconds()
	if r.startMemised {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.AllocBytes = ms.TotalAlloc - r.startAlloc
		r.Mallocs = ms.Mallocs - r.startMallocs
	}
}

// WriteJSON emits the report as indented JSON.
func (r *RunReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// StrategyBench is one screening strategy's measured cost in a run — the
// accounting of its "Strategy sweep [<name>]" registry entry, so the
// strategy-sweep cost comparison lands in BENCH_*.json as committed data.
type StrategyBench struct {
	Strategy    string  `json:"strategy"`
	WallSeconds float64 `json:"wall_seconds"`
	OutputBytes int     `json:"output_bytes"`
	CacheHit    bool    `json:"cache_hit"`
}

// StrategyRows extracts the per-strategy sweep rows of a run by the
// SweepNamePrefix naming contract, in entry (registry) order. Empty when
// the run's scale filtered the sweep out.
func (r *RunReport) StrategyRows() []StrategyBench {
	var rows []StrategyBench
	for i := range r.Experiments {
		e := &r.Experiments[i]
		name, ok := sweepStrategy(e.Name)
		if !ok {
			continue
		}
		rows = append(rows, StrategyBench{
			Strategy:    name,
			WallSeconds: e.WallSeconds,
			OutputBytes: e.OutputBytes,
			CacheHit:    e.CacheHit,
		})
	}
	return rows
}

// sweepStrategy parses a registry entry name against the sweep's naming
// contract ("Strategy sweep [<strategy>]"), returning the strategy name.
func sweepStrategy(name string) (string, bool) {
	if len(name) <= len(SweepNamePrefix)+1 ||
		name[:len(SweepNamePrefix)] != SweepNamePrefix ||
		name[len(name)-1] != ']' {
		return "", false
	}
	return name[len(SweepNamePrefix) : len(name)-1], true
}
