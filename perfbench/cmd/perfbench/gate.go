package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"farron/internal/fleet"
	"farron/internal/model"
	"farron/internal/serve"
)

// The correctness gate. A simulator that runs faster but changes one
// simulated statistic is a different model, so every timed operation's
// output is compared exactly with an untimed Workers-1 reference.

// gateReport compares a rendered report with the expected bytes.
func gateReport(want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	return fmt.Errorf("report differs from the reference at byte %d (%d vs %d bytes)", i, len(got), len(want))
}

// fleetCounts is what the gate compares for one strategy of a fleet pass.
type fleetCounts struct {
	Strategy string
	Faulty   int
	ByStage  [model.NumStages]int
	Escaped  int
}

func countsOf(r *fleet.Result) fleetCounts {
	return fleetCounts{Strategy: r.Strategy, Faulty: r.FaultyTotal, ByStage: r.DetectedByStage, Escaped: r.Escaped}
}

// gateFleet compares each strategy's detection counts, escapes and faulty
// total with the reference pass.
func gateFleet(want, got []fleetCounts) error {
	if len(want) != len(got) {
		return fmt.Errorf("fleet pass ran %d strategies, reference %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("fleet %s: got %+v, reference %+v", want[i].Strategy, got[i], want[i])
		}
	}
	return nil
}

// gateHistory compares two campaign histories (serve.Service.HistoryJSON)
// record by record and returns how many campaigns differ.
func gateHistory(want, got []byte) (int, error) {
	var w, g []json.RawMessage
	if err := json.Unmarshal(want, &w); err != nil {
		return 0, fmt.Errorf("reference history: %w", err)
	}
	if err := json.Unmarshal(got, &g); err != nil {
		return len(w), fmt.Errorf("history does not decode: %w", err)
	}
	bad, first := 0, -1
	for i := 0; i < max(len(w), len(g)); i++ {
		if i < len(w) && i < len(g) && bytes.Equal(w[i], g[i]) {
			continue
		}
		bad++
		if first < 0 {
			first = i
		}
	}
	if bad > 0 {
		return bad, fmt.Errorf("%d of %d campaigns differ from the reference (first: #%d)", bad, len(w), first)
	}
	return 0, nil
}

// readGate checks one reader's status reads: every payload must decode and
// the campaign index it reports must never go down.
type readGate struct {
	lastCampaigns, lastIndex int
}

func (g *readGate) check(status, metrics, latest []byte) error {
	var st serve.Status
	if err := json.Unmarshal(status, &st); err != nil {
		return fmt.Errorf("status: %w", err)
	}
	var mt serve.Metrics
	if err := json.Unmarshal(metrics, &mt); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if st.Campaigns < g.lastCampaigns || mt.Campaigns < g.lastCampaigns {
		return fmt.Errorf("campaign count went down: %d/%d after %d", st.Campaigns, mt.Campaigns, g.lastCampaigns)
	}
	g.lastCampaigns = st.Campaigns
	if latest == nil {
		return nil
	}
	var rec serve.CampaignRecord
	if err := json.Unmarshal(latest, &rec); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if rec.Index < g.lastIndex {
		return fmt.Errorf("campaign index went down: %d after %d", rec.Index, g.lastIndex)
	}
	g.lastIndex = rec.Index
	return nil
}
