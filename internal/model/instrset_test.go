package model

import (
	"sort"
	"testing"
)

func TestInstrSetOutOfRange(t *testing.T) {
	var s InstrSet
	for c := 0; c < NumInstrClasses; c++ {
		s.Add(InstrID{Class: InstrClass(c), Variant: 0})
		s.Add(InstrID{Class: InstrClass(c), Variant: InstrVariants - 1})
	}
	bad := []InstrID{
		{Class: -1, Variant: 0},
		{Class: InstrClass(NumInstrClasses), Variant: 0},
		{Class: InstrIntArith, Variant: -1},
		{Class: InstrIntArith, Variant: InstrVariants},
		{Class: InstrBranch, Variant: InstrVariants},
	}
	for _, id := range bad {
		if s.Has(id) {
			t.Errorf("Has(%v) = true for an out-of-range ID", id)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%v) did not panic", id)
				}
			}()
			s.Add(id)
		}()
	}
	if got := s.Len(); got != 2*NumInstrClasses {
		t.Errorf("Len = %d after out-of-range adds, want %d", got, 2*NumInstrClasses)
	}
}

// TestInstrSetMatchesMap diffs the bitset against the map it replaced:
// membership, size, intersection with the previous trial's set, and
// AppendIDs against the (class, variant) sort of the map's keys.
func TestInstrSetMatchesMap(t *testing.T) {
	x := uint64(7)
	next := func(n int) int { // xorshift: model imports no simrand
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	var prev InstrSet
	prevMap := map[InstrID]bool{}
	overlaps := 0
	for trial := 0; trial < 300; trial++ {
		var s InstrSet
		m := map[InstrID]bool{}
		for k := next(40); k > 0; k-- {
			id := InstrID{Class: InstrClass(next(NumInstrClasses)), Variant: next(InstrVariants)}
			s.Add(id)
			m[id] = true
		}
		want := make([]InstrID, 0, len(m))
		for id := range m {
			want = append(want, id)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Class != want[j].Class {
				return want[i].Class < want[j].Class
			}
			return want[i].Variant < want[j].Variant
		})
		got := s.AppendIDs([]InstrID{{Class: InstrBranch, Variant: 1}})[1:]
		if len(got) != len(want) || s.Len() != len(m) {
			t.Fatalf("trial %d: %d IDs, Len %d, want %d", trial, len(got), s.Len(), len(m))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: AppendIDs[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
		overlap := false
		for id := range m {
			overlap = overlap || prevMap[id]
		}
		if s.Intersects(&prev) != overlap || prev.Intersects(&s) != overlap {
			t.Fatalf("trial %d: Intersects = %v, map overlap %v", trial, s.Intersects(&prev), overlap)
		}
		if overlap {
			overlaps++
		}
		prev, prevMap = s, m
		for c := 0; c < NumInstrClasses; c++ {
			for v := 0; v < InstrVariants; v++ {
				id := InstrID{Class: InstrClass(c), Variant: v}
				if s.Has(id) != m[id] {
					t.Fatalf("trial %d: Has(%v) = %v, map says %v", trial, id, s.Has(id), m[id])
				}
			}
		}
	}
	if overlaps < 30 || overlaps > 270 {
		t.Errorf("%d of 300 trials intersected; both outcomes need coverage", overlaps)
	}
}
