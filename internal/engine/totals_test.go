package engine

import "testing"

func TestRunTotalsAbsorb(t *testing.T) {
	rep := &RunReport{Experiments: []ExperimentTiming{
		{Name: "a", WallSeconds: 1.5, OutputBytes: 10},
		{Name: "b", WallSeconds: 0.5, OutputBytes: 20, CacheHit: true},
		{Name: "c", WallSeconds: 0.25, Error: "boom"},
	}}
	rep.WallSeconds = 2.0
	rep.CacheHits = 1
	rep.CacheMisses = 2

	var tot RunTotals
	tot.Absorb(rep)
	tot.Absorb(rep)
	tot.Absorb(nil) // must be a no-op
	if tot.Runs != 2 || tot.Entries != 6 || tot.Errors != 2 {
		t.Errorf("totals = %+v", tot)
	}
	if tot.WallSeconds != 4.0 || tot.CacheHits != 2 || tot.CacheMisses != 4 {
		t.Errorf("totals accounting = %+v", tot)
	}
	if tot.OutputBytes != 60 {
		t.Errorf("output bytes = %d", tot.OutputBytes)
	}
}
