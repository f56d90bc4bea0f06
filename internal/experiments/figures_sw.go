package experiments

import (
	"fmt"
	"math"
	"sort"

	"farron/internal/defect"
	"farron/internal/engine"
	"farron/internal/inject"
	"farron/internal/model"
	"farron/internal/report"
	"farron/internal/stats"
)

// Fig2Result is Figure 2: proportion of faulty processors per feature.
type Fig2Result struct {
	Proportions map[model.Feature]float64
	N           int
}

// Fig2 measures the per-feature proportions over the study set. The sum
// exceeds 1 because defects can span shared components of several features
// (e.g. MIX1's FPU+vector combination).
func Fig2(ctx *Context) *Fig2Result {
	out := &Fig2Result{Proportions: map[model.Feature]float64{}, N: len(ctx.Study)}
	for _, p := range ctx.Study {
		for _, f := range p.Features() {
			out.Proportions[f] += 1 / float64(out.N)
		}
	}
	return out
}

// Render draws the Figure 2 bar chart.
func (r *Fig2Result) Render() string {
	labels := make([]string, 0, model.NumFeatures)
	values := make([]float64, 0, model.NumFeatures)
	for _, f := range model.AllFeatures() {
		labels = append(labels, f.String())
		values = append(values, r.Proportions[f])
	}
	return report.Bars(
		fmt.Sprintf("Figure 2 — proportion of processors with a faulty feature (n=%d)", r.N),
		labels, values, 40)
}

// Fig3Result is Figure 3: proportion of faulty processors per affected
// operation datatype.
type Fig3Result struct {
	Proportions map[model.DataType]float64
	N           int
}

// Fig3 measures per-datatype proportions over the computation-defect study
// processors.
func Fig3(ctx *Context) *Fig3Result {
	out := &Fig3Result{Proportions: map[model.DataType]float64{}, N: len(ctx.Study)}
	for _, p := range ctx.Study {
		for _, dt := range p.DataTypes() {
			out.Proportions[dt] += 1 / float64(out.N)
		}
	}
	return out
}

// Render draws the Figure 3 bar chart.
func (r *Fig3Result) Render() string {
	var labels []string
	var values []float64
	for _, dt := range model.AllDataTypes() {
		labels = append(labels, dt.String())
		values = append(values, r.Proportions[dt])
	}
	return report.Bars(
		fmt.Sprintf("Figure 3 — proportion of processors per affected datatype (n=%d)", r.N),
		labels, values, 40)
}

// BitflipStats aggregates Figure 4/5 statistics for one datatype.
type BitflipStats struct {
	DataType model.DataType
	// PosZeroToOne and PosOneToZero count flips per bit position by
	// direction.
	PosZeroToOne, PosOneToZero []int
	// ZeroToOneShare is the overall 0→1 fraction (paper: 51.08%).
	ZeroToOneShare float64
	// Losses are the relative precision losses (numerical types only).
	Losses []float64
	// Records is the number of SDC records aggregated.
	Records int
}

// collectRecords synthesizes n SDC records for dt by driving the study
// set's corruptors the way the runner does, and aggregates flip statistics.
func collectRecords(ctx *Context, dt model.DataType, n int) *BitflipStats {
	bits := dt.Bits()
	st := &BitflipStats{
		DataType:     dt,
		PosZeroToOne: make([]int, bits),
		PosOneToZero: make([]int, bits),
	}
	// Corruptors of every study defect affecting dt, with representative
	// setting pattern probabilities.
	type src struct {
		c    *inject.Corruptor
		prob float64
	}
	var sources []src
	for _, p := range ctx.Study {
		for _, d := range p.Defects {
			if !d.AffectsDataType(dt) {
				continue
			}
			c := d.Corruptor(dt, ctx.Rng)
			for i, tc := range ctx.Failing(p) {
				if i >= 3 {
					break
				}
				sources = append(sources, src{c, d.SettingPatternProb(tc.ID, ctx.Rng)})
			}
		}
	}
	if len(sources) == 0 {
		return st
	}
	rng := ctx.Rng.Derive("fig45", dt.String())
	var z2o, total int
	for i := 0; i < n; i++ {
		s := sources[i%len(sources)]
		expLo, expHi := inject.RandomValue(rng, dt)
		actLo, actHi := s.c.CorruptWithProb(rng, s.prob, expLo, expHi)
		maskLo := expLo ^ actLo
		maskHi := expHi ^ actHi
		for pos := 0; pos < bits; pos++ {
			if !inject.BitAt(maskLo, maskHi, pos) {
				continue
			}
			total++
			if inject.BitAt(expLo, expHi, pos) {
				st.PosOneToZero[pos]++
			} else {
				st.PosZeroToOne[pos]++
				z2o++
			}
		}
		if dt.Numeric() {
			loss := inject.RelativeLoss(dt, expLo, actLo, expHi, actHi)
			if !math.IsNaN(loss) {
				st.Losses = append(st.Losses, loss)
			}
		}
		st.Records++
	}
	if total > 0 {
		st.ZeroToOneShare = float64(z2o) / float64(total)
	}
	return st
}

// Fig4Result is Figure 4: bitflip positions and precision-loss CDFs for
// numerical datatypes.
type Fig4Result struct {
	Stats map[model.DataType]*BitflipStats
	// LossQuantiles summarizes the paper's headline loss claims.
	LossQuantiles map[model.DataType]map[string]float64
}

// fig4Types are the datatypes of Figure 4.
func fig4Types() []model.DataType {
	return []model.DataType{model.DTInt32, model.DTFloat32, model.DTFloat64, model.DTFloat64x}
}

// Fig4 gathers per-position flip histograms and loss CDFs. The datatypes
// are independent shards: each collectRecords call derives its own
// per-datatype substream, so they run in parallel.
func Fig4(ctx *Context, recordsPerType int) *Fig4Result {
	out := &Fig4Result{
		Stats:         map[model.DataType]*BitflipStats{},
		LossQuantiles: map[model.DataType]map[string]float64{},
	}
	types := fig4Types()
	sts := engine.MapPlain(ctx.Pool(), len(types), func(i int) *BitflipStats {
		return collectRecords(ctx, types[i], recordsPerType)
	})
	for i, dt := range types {
		st := sts[i]
		out.Stats[dt] = st
		if len(st.Losses) > 0 {
			cdf := stats.NewCDF(st.Losses)
			out.LossQuantiles[dt] = map[string]float64{
				"p50":  cdf.Quantile(0.5),
				"p90":  cdf.Quantile(0.9),
				"p999": cdf.Quantile(0.999),
			}
		}
	}
	return out
}

// Render draws the Figure 4 histograms and CDFs.
func (r *Fig4Result) Render() string {
	var out string
	for _, dt := range fig4Types() {
		st := r.Stats[dt]
		if st == nil || st.Records == 0 {
			continue
		}
		out += renderFlipHistogram(fmt.Sprintf("Figure 4 — bitflips of %s (%d records)", dt, st.Records), st)
		if len(st.Losses) > 0 {
			logs := make([]float64, 0, len(st.Losses))
			for _, l := range st.Losses {
				if l > 0 && !math.IsInf(l, 0) {
					logs = append(logs, math.Log10(l))
				}
			}
			cdf := stats.NewCDF(logs)
			xs, ps := cdf.Points(12)
			out += report.CDFPlot(fmt.Sprintf("Figure 4 — precision losses of %s (log10)", dt), xs, ps, 40)
		}
		out += "\n"
	}
	return out
}

func renderFlipHistogram(title string, st *BitflipStats) string {
	bits := len(st.PosZeroToOne)
	// Bucket positions into 8 groups for terminal display.
	groups := 8
	labels := make([]string, groups)
	values := make([]float64, groups)
	total := 0
	for i := 0; i < bits; i++ {
		total += st.PosZeroToOne[i] + st.PosOneToZero[i]
	}
	for g := 0; g < groups; g++ {
		lo := g * bits / groups
		hi := (g+1)*bits/groups - 1
		labels[g] = fmt.Sprintf("bit %2d-%2d", lo, hi)
		sum := 0
		for i := lo; i <= hi; i++ {
			sum += st.PosZeroToOne[i] + st.PosOneToZero[i]
		}
		if total > 0 {
			values[g] = float64(sum) / float64(total)
		}
	}
	return report.Bars(title+fmt.Sprintf(" (0→1 share %.2f%%)", st.ZeroToOneShare*100), labels, values, 40)
}

// Fig5Result is Figure 5: bitflips of non-numerical datatypes (uniform
// positions).
type Fig5Result struct {
	Stats map[model.DataType]*BitflipStats
}

// fig5Types are the datatypes of Figure 5.
func fig5Types() []model.DataType {
	return []model.DataType{model.DTBin32, model.DTBin64}
}

// Fig5 gathers flip-position statistics for binary blobs, one parallel
// shard per datatype like Fig4.
func Fig5(ctx *Context, recordsPerType int) *Fig5Result {
	out := &Fig5Result{Stats: map[model.DataType]*BitflipStats{}}
	types := fig5Types()
	sts := engine.MapPlain(ctx.Pool(), len(types), func(i int) *BitflipStats {
		return collectRecords(ctx, types[i], recordsPerType)
	})
	for i, dt := range types {
		out.Stats[dt] = sts[i]
	}
	return out
}

// Render draws the Figure 5 histograms.
func (r *Fig5Result) Render() string {
	var out string
	for _, dt := range fig5Types() {
		st := r.Stats[dt]
		if st == nil || st.Records == 0 {
			continue
		}
		out += renderFlipHistogram(fmt.Sprintf("Figure 5 — bitflips of %s (%d records)", dt, st.Records), st)
	}
	return out
}

// Fig6Result is Figure 6: per-setting proportion of SDC records matching a
// bitflip pattern.
type Fig6Result struct {
	// RowLabels are testcase letters (A..Q); ColLabels are processors.
	RowLabels, ColLabels []string
	// Values[row][col] is the pattern proportion, NaN when the testcase
	// does not fail on that processor.
	Values [][]float64
}

// fig6Processors are the Figure 6 columns.
func fig6Processors() []string { return []string{"MIX1", "MIX2", "SIMD1", "FPU1", "FPU2"} }

// Fig6 measures pattern proportions per (testcase, processor) setting by
// generating recordsPerSetting records through each setting's corruptor.
func Fig6(ctx *Context, recordsPerSetting int) *Fig6Result {
	procs := fig6Processors()
	// Union of failing testcases across the five processors, capped at
	// 17 rows (A..Q).
	rowIDs := []string{}
	seen := map[string]bool{}
	for _, id := range procs {
		for _, tcID := range ctx.KnownErrs(id) {
			if !seen[tcID] {
				seen[tcID] = true
				rowIDs = append(rowIDs, tcID)
			}
		}
	}
	sort.Strings(rowIDs)
	if len(rowIDs) > 17 {
		rowIDs = rowIDs[:17]
	}
	out := &Fig6Result{ColLabels: procs}
	for i, tcID := range rowIDs {
		out.RowLabels = append(out.RowLabels, fmt.Sprintf("%c(%s)", 'A'+i, tcID))
	}
	// Each (testcase, processor) setting is an independent shard with its
	// own substream, so rows fill in parallel and the heatmap is identical
	// at any worker count.
	out.Values = engine.MapPlain(ctx.Pool(), len(rowIDs), func(i int) []float64 {
		tcID := rowIDs[i]
		row := make([]float64, len(procs))
		for j, procID := range procs {
			row[j] = math.NaN()
			p := ctx.Profile(procID)
			d := failingDefect(ctx, p, tcID)
			if d == nil || len(d.DataTypes) == 0 {
				continue
			}
			dt := commonType(ctx, tcID, d)
			if dt < 0 {
				continue
			}
			c := d.Corruptor(dt, ctx.Rng)
			prob := d.SettingPatternProb(tcID, ctx.Rng)
			rng := ctx.Rng.Derive("fig6", tcID, procID)
			match := 0
			for k := 0; k < recordsPerSetting; k++ {
				expLo, expHi := inject.RandomValue(rng, dt)
				actLo, actHi := c.CorruptWithProb(rng, prob, expLo, expHi)
				if matchesPattern(c, expLo^actLo, expHi^actHi) {
					match++
				}
			}
			row[j] = float64(match) / float64(recordsPerSetting)
		}
		return row
	})
	return out
}

// failingDefect returns the profile's defect detectable by testcase tcID,
// or nil.
func failingDefect(ctx *Context, p *defect.Profile, tcID string) *defect.Defect {
	tc := ctx.Suite.ByID(tcID)
	if tc == nil || p == nil {
		return nil
	}
	for _, d := range p.Defects {
		for _, id := range d.SortedInstrs() {
			if tc.UsesInstr(id) {
				return d
			}
		}
	}
	return nil
}

// commonType returns a datatype both the testcase checks and the defect
// corrupts, or -1.
func commonType(ctx *Context, tcID string, d *defect.Defect) model.DataType {
	tc := ctx.Suite.ByID(tcID)
	for _, dt := range tc.DataTypes {
		if d.AffectsDataType(dt) {
			return dt
		}
	}
	return -1
}

func matchesPattern(c *inject.Corruptor, maskLo uint64, maskHi uint16) bool {
	for _, m := range c.Patterns() {
		if m.Lo == maskLo && m.Hi == maskHi {
			return true
		}
	}
	return false
}

// Render draws the Figure 6 heatmap.
func (r *Fig6Result) Render() string {
	return report.Heatmap("Figure 6 — proportion of SDCs with bitflip patterns",
		r.RowLabels, r.ColLabels, r.Values)
}

// Fig7Result is Figure 7: distribution of flipped-bit counts among
// pattern-bearing SDCs.
type Fig7Result struct {
	// Proportions[dt][k] is the share of pattern SDCs with k flipped
	// bits (k in 1, 2, 3 where 3 means ">2").
	Proportions map[model.DataType][3]float64
}

// fig7Types are the datatypes of Figure 7.
func fig7Types() []model.DataType {
	return []model.DataType{
		model.DTFloat32, model.DTFloat64, model.DTFloat64x, model.DTInt32, model.DTBin8,
	}
}

// Fig7 measures flipped-bit multiplicity within each defect's fixed
// patterns, weighted by pattern selection probability.
func Fig7(ctx *Context, recordsPerType int) *Fig7Result {
	out := &Fig7Result{Proportions: map[model.DataType][3]float64{}}
	types := fig7Types()
	// One shard per datatype, each with its own substream.
	props := engine.MapPlain(ctx.Pool(), len(types), func(i int) [3]float64 {
		dt := types[i]
		rng := ctx.Rng.Derive("fig7", dt.String())
		counts := [3]int{}
		total := 0
		for _, p := range ctx.Study {
			for _, d := range p.Defects {
				if !d.AffectsDataType(dt) {
					continue
				}
				c := d.Corruptor(dt, ctx.Rng)
				// Sample pattern picks.
				for k := 0; k < recordsPerType; k++ {
					expLo, expHi := inject.RandomValue(rng, dt)
					actLo, actHi := c.CorruptWithProb(rng, 1, expLo, expHi)
					n := inject.PopCount(expLo^actLo, expHi^actHi)
					switch {
					case n == 1:
						counts[0]++
					case n == 2:
						counts[1]++
					default:
						counts[2]++
					}
					total++
				}
			}
		}
		if total == 0 {
			return [3]float64{}
		}
		return [3]float64{
			float64(counts[0]) / float64(total),
			float64(counts[1]) / float64(total),
			float64(counts[2]) / float64(total),
		}
	})
	for i, dt := range types {
		out.Proportions[dt] = props[i]
	}
	return out
}

// Render draws the Figure 7 grouped bars.
func (r *Fig7Result) Render() string {
	t := report.NewTable("Figure 7 — flipped-bit count among pattern SDCs",
		"datatype", "1 bit", "2 bits", ">2 bits")
	for _, dt := range fig7Types() {
		p := r.Proportions[dt]
		t.AddRow(dt.String(),
			fmt.Sprintf("%.2f", p[0]), fmt.Sprintf("%.2f", p[1]), fmt.Sprintf("%.2f", p[2]))
	}
	return t.String()
}
