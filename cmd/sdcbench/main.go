// Command sdcbench regenerates every table and figure of the paper's
// evaluation in one run and writes the full report — the data source for
// EXPERIMENTS.md. Experiments run concurrently on the engine's sharded
// pool; the rendered report is byte-identical at any -workers value, and
// -cache reuses content-addressed results from previous runs (warm output
// is byte-identical to cold).
//
// Usage:
//
//	sdcbench [-seed seed] [-workers n] [-quick] [-cache] [-cache-dir dir] [-fanout n] [-hosts a:p,b:p] [-screener strategy] [-n population] [-o output] [-json]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"farron/internal/engine"
	"farron/internal/engine/cliflags"
	"farron/internal/engine/wallclock"
	"farron/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sdcbench: ")
	var (
		cfg      = cliflags.Register(flag.CommandLine)
		n        = flag.Int("n", 0, "fleet population size (default: the scale's)")
		out      = flag.String("o", "", "output file (default stdout)")
		jsonOut  = flag.Bool("json", false, "write the run's timing/allocs report to BENCH_<date>.json")
		jsonPath = flag.String("jsonpath", "", "override the -json report path")
	)
	flag.Parse()

	// All failures route through run so file closes are not skipped by
	// log.Fatal's os.Exit.
	if err := run(cfg, *n, *out, *jsonOut, *jsonPath); err != nil {
		log.Fatal(err)
	}
}

func run(cfg *cliflags.RunConfig, n int, out string, jsonOut bool, jsonPath string) (err error) {
	exps := experiments.Registry()
	if cfg.WorkerMode() {
		return cfg.ServeWorker(exps)
	}
	if cfg.DaemonMode() {
		return cfg.ServeDaemon(exps)
	}
	stopProf, err := cfg.StartProfiles()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	sc := cfg.Scale()
	if n > 0 {
		sc.Population = n
	}

	runner, err := cfg.Runner()
	if err != nil {
		return err
	}
	sections, rep, err := runner.Run(exps, sc)
	if err != nil {
		return err
	}
	if err := writeReport(out, sections); err != nil {
		return err
	}

	if jsonOut || jsonPath != "" {
		rep.Quick = cfg.Quick
		rep.StrategyBench = rep.StrategyRows()
		path := jsonPath
		if path == "" {
			path = "BENCH_" + wallclock.Date() + ".json"
		}
		if err := writeJSON(path, rep); err != nil {
			return err
		}
		msg := fmt.Sprintf("bench report: %s (wall %.2fs, workers %d", path, rep.WallSeconds, rep.Workers)
		if cfg.Cache {
			msg += fmt.Sprintf(", cache %d hits / %d misses", rep.CacheHits, rep.CacheMisses)
		}
		if rep.Fanout > 1 {
			msg += fmt.Sprintf(", fanout %d procs / %d recomputed", rep.Fanout, rep.RecomputedShards)
		}
		log.Print(msg + ")")
	}
	return nil
}

// writeReport writes the rendered sections to path (stdout when empty),
// checking every write and closing explicitly on the success path so a
// full disk surfaces as an error instead of a silently truncated report.
func writeReport(path string, sections []engine.Section) error {
	if path == "" {
		return engine.WriteSections(os.Stdout, sections, true)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // backstop for error returns; success path closes below
	if err := engine.WriteSections(f, sections, true); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

// writeJSON writes the run report to path with the same write/close
// discipline as writeReport.
func writeJSON(path string, rep *engine.RunReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rep.WriteJSON(f); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
