package defect

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"farron/internal/model"
	"farron/internal/simrand"
)

// fleetFaultyOracle is the per-call, map-based fleet profile generation
// that FleetGenerator replaced: a fresh generator per CPU, a study-arch
// CoreMult built and then discarded, and a vuln-pool substream plus a
// 48-element Perm for every affected instruction. It returns the profile,
// its clustered instruction map and the fleet substream after its last
// draw.
func fleetFaultyOracle(rng *simrand.Source, serial string, arch model.MicroArch) (*Profile, map[model.InstrID]bool, *simrand.Source) {
	g := newGenerator(rng)
	r := g.rng.Derive("fleet", serial)
	class := model.ClassComputation
	if r.Bool(8.0 / 27.0) {
		class = model.ClassConsistency
	}
	p := g.study(serial, class)
	p.Arch = arch
	pcores, threads := archCores(arch)
	p.TotalPCores, p.ThreadsPerCore = pcores, threads
	d := p.Defects[0]
	clustered := map[model.InstrID]bool{}
	for _, id := range d.SortedInstrs() {
		pr := g.rng.Derive("vuln-pool", string(arch), id.Class.String())
		pool := pr.Perm(model.InstrVariants)[:vulnerablePoolSize]
		v := pool[r.Intn(len(pool))]
		clustered[model.InstrID{Class: id.Class, Variant: v}] = true
	}
	if d.AllCores {
		d.CoreMult = spreadCoreMult(g.rng, d.ID, pcores, r.Intn(pcores))
		p.DefectivePCores = pcores
	} else {
		d.Cores = []int{r.Intn(pcores)}
		p.DefectivePCores = 1
	}
	return p, clustered, r
}

// TestFleetGeneratorMatchesOracle diffs FleetGenerator.faulty against the
// oracle for 20,007 serials over the nine archs plus an arch outside
// AllMicroArchs: the same sorted instructions, the same profile in every
// other field (Cores, CoreMult, scalars) and the same next draw of the
// fleet substream.
func TestFleetGeneratorMatchesOracle(t *testing.T) {
	rng := simrand.New(3).Derive("fleet")
	gen := NewFleetGenerator(rng)
	archs := append(model.AllMicroArchs(), "MX")
	allCores, consistency := 0, 0
	for i := 0; i < 20_007; i++ {
		arch := archs[i%len(archs)]
		serial := fmt.Sprintf("%s-flt-%05d", arch, i)
		want, wantInstrs, wr := fleetFaultyOracle(rng, serial, arch)
		var gr simrand.Source
		got := gen.faulty(&gr, serial, arch)

		ids := make([]model.InstrID, 0, len(wantInstrs))
		for id := range wantInstrs {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool {
			if ids[a].Class != ids[b].Class {
				return ids[a].Class < ids[b].Class
			}
			return ids[a].Variant < ids[b].Variant
		})
		if gotIDs := got.Defects[0].SortedInstrs(); !reflect.DeepEqual(gotIDs, ids) {
			t.Fatalf("%s: instructions %v, oracle %v", serial, gotIDs, ids)
		}
		want.Defects[0].AffectedInstrs = got.Defects[0].AffectedInstrs
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: profile\n got  %+v %+v\n want %+v %+v", serial, got, got.Defects[0], want, want.Defects[0])
		}
		if g, w := gr.Uint64(), wr.Uint64(); g != w {
			t.Fatalf("%s: next fleet draw %#x, oracle %#x", serial, g, w)
		}
		if got.Defects[0].AllCores {
			allCores++
		}
		if got.Class() == model.ClassConsistency {
			consistency++
		}
	}
	// Both core scopes and both classes must have been exercised.
	if allCores < 5000 || allCores > 15000 || consistency < 3000 || consistency > 9000 {
		t.Errorf("coverage: %d all-core, %d consistency of 20007", allCores, consistency)
	}
}

// faultyAllocsPin is Faulty's allocation count over TestFleetFaultyAllocs'
// 90 serials, about 12.6 per profile: the profile, its defect and their
// slices, the defect ID, the study draw's PickN picks, datatypePool's two
// slices and an all-core defect's CoreMult map. The per-call generator it
// replaced allocated 32.4 per profile (2920).
const faultyAllocsPin = 1130

// TestFleetFaultyAllocs pins Faulty's allocations over a fixed serial mix
// (all-core and single-core defects, both classes, all nine archs).
func TestFleetFaultyAllocs(t *testing.T) {
	gen := NewFleetGenerator(simrand.New(4).Derive("fleet"))
	archs := model.AllMicroArchs()
	serials := make([]string, 90)
	for i := range serials {
		serials[i] = fmt.Sprintf("%s-flt-%05d", archs[i%len(archs)], i)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i, s := range serials {
			gen.Faulty(s, archs[i%len(archs)])
		}
	})
	t.Logf("Faulty: %.2f allocs per profile", allocs/float64(len(serials)))
	if allocs > faultyAllocsPin {
		t.Fatalf("Faulty allocates %.0f over %d serials, pinned at %d", allocs, len(serials), faultyAllocsPin)
	}
}
