package defect

import (
	"math"
	"testing"

	"farron/internal/simrand"
)

// rateOracle is λ(T, stress) written out as RatePerMin evaluated it before
// the curve was compiled: math.Pow and math.Min on every call.
func rateOracle(d *Defect, idx int, tempC, stress float64) float64 {
	if tempC < d.MinTempC || stress <= 0 {
		return 0
	}
	m := d.CoreMultiplier(idx)
	if m == 0 {
		return 0
	}
	expo := d.TempSlope * (tempC - d.MinTempC)
	if sat := d.satDecades(); expo > sat {
		expo = sat
	}
	return math.Min(d.BaseFreqPerMin*m*math.Pow(10, expo)*stress, MaxFreqPerMin)
}

// kernelTemps returns a temperature grid around d's curve: below the
// trigger, exactly at it, through the exponential regime and past
// saturation, in three orders — ascending, alternating between the ends
// (every call a memo miss) and each temperature twice (every other call a
// hit).
func kernelTemps(d *Defect) [][]float64 {
	satT := d.MinTempC + d.satDecades()/math.Max(d.TempSlope, 1e-9)
	var grid []float64
	for _, t := range []float64{d.MinTempC - 10, math.Nextafter(d.MinTempC, 0), d.MinTempC} {
		grid = append(grid, t)
	}
	for t := d.MinTempC + 0.25; t < math.Min(satT+10, 130); t += 0.75 {
		grid = append(grid, t)
	}
	alternating := make([]float64, 0, len(grid))
	repeating := make([]float64, 0, 2*len(grid))
	for i := range grid {
		alternating = append(alternating, grid[i], grid[len(grid)-1-i])
		repeating = append(repeating, grid[i], grid[i])
	}
	return [][]float64{grid, alternating, repeating}
}

func TestRateKernelBitIdenticalToRatePerMin(t *testing.T) {
	stresses := []float64{-1, 0, 1e-6, 0.02, 0.5, 1, 3, 1e6}
	var below, saturated, capped, hits int
	for _, p := range Library(simrand.New(1)) {
		for _, d := range p.Defects {
			curve := d.RateCurve()
			for core := 0; core < p.TotalPCores; core++ {
				bm := d.BaseFreqPerMin * d.CoreMultiplier(core)
				for _, temps := range kernelTemps(d) {
					k := d.RateKernel()
					for _, temp := range temps {
						for _, s := range stresses {
							want := d.RatePerMin(core, temp, s)
							memoBefore := k.expo
							got := k.Rate(bm, temp, s)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s core %d T=%v s=%v: kernel %v (%#x), RatePerMin %v (%#x)",
									d.ID, core, temp, s, got, math.Float64bits(got), want, math.Float64bits(want))
							}
							if pure := curve.Rate(bm, temp, s); math.Float64bits(pure) != math.Float64bits(want) {
								t.Fatalf("%s core %d T=%v s=%v: curve %v, RatePerMin %v", d.ID, core, temp, s, pure, want)
							}
							if old := rateOracle(d, core, temp, s); math.Float64bits(old) != math.Float64bits(want) {
								t.Fatalf("%s core %d T=%v s=%v: oracle %v, RatePerMin %v", d.ID, core, temp, s, old, want)
							}
							switch {
							case temp < d.MinTempC:
								below++
							case want == MaxFreqPerMin:
								capped++
							case d.TempSlope*(temp-d.MinTempC) > d.satDecades() && want > 0:
								saturated++
							}
							if want > 0 && k.expo == memoBefore {
								hits++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d below-trigger, %d saturated, %d capped points; %d memo hits", below, saturated, capped, hits)
	if below == 0 || saturated == 0 || capped == 0 || hits == 0 {
		t.Fatal("the grid misses a regime: below-trigger, saturated, capped and memo hits must all occur")
	}
}
