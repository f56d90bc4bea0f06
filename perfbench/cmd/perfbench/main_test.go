package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"farron/internal/engine"
	"farron/internal/serve"
)

// testSizes runs the benchmark's code on inputs small enough for tier-1.
func testSizes() sizes {
	return sizes{scale: engine.QuickScale(), paperSeeds: 2, fleetCPUs: 100_000, campaigns: 4, readEvery: 0.002}
}

func testConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, trace: trace, traceDir: t.TempDir(), sz: testSizes()}
}

// instance sets up and references the first instance of a workload.
func instance(t *testing.T, name string, seed uint64, committed []byte) workload {
	t.Helper()
	ws, err := newWorkloads(name, seed, testSizes(), committed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws[0].reference(); err != nil {
		t.Fatal(err)
	}
	if err := ws[0].setup(nil, -1); err != nil {
		t.Fatal(err)
	}
	return ws[0]
}

func TestGateRejectsChangedReportByte(t *testing.T) {
	w := instance(t, "paper-report", 7, nil).(*paperReport)
	m := newMeter(nil, 0, 1)
	if err := w.step(m); err != nil {
		t.Fatal(err)
	}
	w.want[len(w.want)/2] ^= 1
	if err := w.step(m); err != nil {
		t.Fatal(err)
	}
	r := newResult(m)
	if r.Attempted != 2 || r.Failed != 1 || r.Correct || r.errorRate() != 0.5 {
		t.Fatalf("attempted %d failed %d correct %v error_rate %v; want 2, 1, false, 0.5",
			r.Attempted, r.Failed, r.Correct, r.errorRate())
	}
}

func TestGateRejectsReferenceThatDiffersFromCommittedReport(t *testing.T) {
	w := instance(t, "paper-report", 1, []byte("== Table 1 ==\n"))
	m := newMeter(nil, 0, 1)
	if err := w.step(m); err != nil {
		t.Fatal(err)
	}
	if m.failed != 1 {
		t.Fatalf("failed %d, want 1: a reference that differs from the committed report fails every operation", m.failed)
	}
}

func TestGateRejectsChangedCampaign(t *testing.T) {
	w := instance(t, "serve-campaigns", 7, nil).(*serveCampaigns)
	var recs []serve.CampaignRecord
	if err := json.Unmarshal(w.want, &recs); err != nil {
		t.Fatal(err)
	}
	recs[2].Detected++
	var err error
	if w.want, err = json.MarshalIndent(recs, "", "  "); err != nil {
		t.Fatal(err)
	}
	m := newMeter(nil, 0, 1)
	if err := w.step(m); err != nil {
		t.Fatal(err)
	}
	r := newResult(m)
	reads := r.Attempted - len(recs)
	if r.Failed != 1 || reads < 1 || r.Correct || r.errorRate() != 1/float64(r.Attempted) {
		t.Fatalf("attempted %d (%d reads) failed %d correct %v; want one failed campaign", r.Attempted, reads, r.Failed, r.Correct)
	}
}

func TestPaperReportRunsTheSameSeedsInTurn(t *testing.T) {
	// Every benchmark seed renders simulation seeds 1 to paperSeeds; the
	// benchmark seed only picks which comes first. Seed 1 carries the
	// committed report.
	sz := testSizes()
	sz.paperSeeds = 4
	committed := []byte("report")
	for _, tc := range []struct {
		seed uint64
		want []uint64
	}{{1, []uint64{1, 2, 3, 4}}, {3, []uint64{3, 4, 1, 2}}, {8, []uint64{4, 1, 2, 3}}} {
		ws, err := newWorkloads("paper-report", tc.seed, sz, committed)
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for _, w := range ws {
			p := w.(*paperReport)
			got = append(got, p.seed)
			if (p.seed == 1) != (p.committed != nil) {
				t.Errorf("benchmark seed %d: simulation seed %d has committed report %v", tc.seed, p.seed, p.committed != nil)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("benchmark seed %d: simulation seeds %v, want %v", tc.seed, got, tc.want)
		}
	}
}

func TestKnownDefectProbeRunsEverySeed(t *testing.T) {
	tr := newTracer()
	n, err := probeKnownDefect(tr, testSizes())
	if err != nil {
		t.Fatal(err)
	}
	if spans := len(tr.named("gate.known_defect")); spans != len(knownDefectSeeds) || n < 0 || n > spans {
		t.Fatalf("%d failures over %d spans, want at most one per seed of %v", n, spans, knownDefectSeeds)
	}
	t.Logf("Section 5 separation fails at %d of %v", n, knownDefectSeeds)
}

func TestGateHistoryCountsEveryDifferingCampaign(t *testing.T) {
	want := []byte(`[{"index":0},{"index":1},{"index":2}]`)
	if n, err := gateHistory(want, want); n != 0 || err != nil {
		t.Fatalf("identical histories: %d, %v", n, err)
	}
	if n, err := gateHistory(want, []byte(`[{"index":0},{"index":7}]`)); n != 2 || err == nil {
		t.Fatalf("one changed and one missing campaign: %d, %v; want 2 and an error", n, err)
	}
	if n, err := gateHistory(want, []byte(`[{`)); n != 3 || err == nil {
		t.Fatalf("undecodable history: %d, %v; want 3 and an error", n, err)
	}
}

func TestReadGateRejectsIndexGoingDown(t *testing.T) {
	status := func(n int) []byte { return []byte(`{"campaigns":` + strconv.Itoa(n) + `}`) }
	rec := func(i int) []byte { return []byte(`{"index":` + strconv.Itoa(i) + `}`) }
	var g readGate
	if err := g.check(status(2), []byte(`{"campaigns":2}`), rec(1)); err != nil {
		t.Fatal(err)
	}
	if err := g.check(status(2), []byte(`{"campaigns":2}`), rec(0)); err == nil {
		t.Fatal("campaign index went from 1 to 0 and the gate accepted it")
	}
	if err := g.check([]byte(`{`), []byte(`{}`), nil); err == nil {
		t.Fatal("undecodable status accepted")
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// sameMetrics fails unless got carries exactly the declared names, each
// with its declared unit.
func sameMetrics(t *testing.T, what string, want map[string]string, got map[string]metric) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s not printed", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s printed in %q, declared in %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s printed but not declared", what, name)
		}
	}
}

func TestEveryWorkloadPrintsEveryEndToEndMetric(t *testing.T) {
	endToEnd, _ := benchmarkMetrics(t)
	for _, name := range workloadNames {
		res, err := measure(testConfig(t, name, false))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct %v, %d of %d failed", name, res.Correct, res.Failed, res.Attempted)
		}
		sameMetrics(t, name, endToEnd, res.Metrics)
	}
}

func TestTracedRunPrintsEveryPerLayerMetric(t *testing.T) {
	_, perLayer := benchmarkMetrics(t)
	cfg := testConfig(t, "fleet-scale", true)
	res, err := measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	sameMetrics(t, "traced", perLayer, res.Metrics)
	b, err := os.ReadFile(filepath.Join(cfg.traceDir, "fleet-scale-seed7.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var first struct {
		ID     int     `json:"id"`
		Name   string  `json:"name"`
		Parent int     `json:"parent"`
		Start  float64 `json:"start_s"`
		End    float64 `json:"end_s"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.Name == "" || first.End < first.Start {
		t.Fatalf("span log line %q: %+v, %v", lines[0], first, err)
	}
}

func TestNoLintSuppressions(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	marker := "//sdclint:" + "ignore"
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(b), marker) {
			t.Errorf("%s suppresses a determinism finding; the benchmark must lint clean", f)
		}
	}
}
