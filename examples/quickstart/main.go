// Quickstart: create a simulation world, test a faulty processor with the
// toolchain, and mitigate it with Farron.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"farron"
)

func main() {
	log.SetFlags(0)

	// A deterministic world: the 633-testcase toolchain plus the paper's
	// 27 studied faulty processors.
	sim := farron.NewSimulation(42)

	// FPU1: a single defective core whose arctangent instruction gives
	// wrong results (Table 3).
	proc := sim.FaultyProcessor("FPU1")
	fmt.Printf("processor: %v, defective cores: %v\n", proc, proc.DefectiveCores())

	runner := sim.Runner(proc)
	profile := sim.Profile("FPU1")

	// Farron: pre-production testing finds the defect and masks the
	// defective core; the processor keeps serving on the healthy cores.
	mit := farron.NewFarron(farron.DefaultConfig(), runner,
		farron.DefectFeatures(profile), nil)
	rep := mit.PreProduction()
	fmt.Printf("pre-production: %d failing testcases, %d SDC records, max temp %.1f degC\n",
		len(rep.DetectedTestcases), rep.SDCs, rep.MaxTempC)
	fmt.Printf("state: %v, masked cores: %d, active cores: %d\n",
		mit.State(), proc.MaskedCount(), len(proc.ActiveCores()))

	// A regular round three months later: prioritized testcases only,
	// roughly one hour instead of the baseline's 10.55.
	round := mit.RegularRound()
	fmt.Printf("regular round: %v of testing, %d detections\n",
		round.Duration.Round(1e9), len(round.DetectedTestcases))

	if proc.Deprecated() {
		log.Fatal("unexpected: single-core defect should not deprecate the processor")
	}
	fmt.Println("done: defective core masked, processor still in service")
}
