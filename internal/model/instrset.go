package model

import (
	"fmt"
	"math/bits"
)

// NumInstrs is the number of distinct virtual instructions.
const NumInstrs = NumInstrClasses * InstrVariants

// Index returns the instruction's dense index in [0, NumInstrs): class
// major, then variant, which is the (class, variant) sort order. ok is
// false for an ID outside the modeled classes and variants.
func (id InstrID) Index() (i int, ok bool) {
	if uint(id.Class) >= uint(NumInstrClasses) || uint(id.Variant) >= InstrVariants {
		return 0, false
	}
	return int(id.Class)*InstrVariants + id.Variant, true
}

// InstrSet is a set of virtual instructions, one bit per Index. The zero
// value is the empty set and assignment copies the set, so membership
// tests hash nothing and a set costs no allocation.
type InstrSet struct {
	words [(NumInstrs + 63) / 64]uint64
}

// Has reports whether id is in the set; an out-of-range ID never is.
func (s *InstrSet) Has(id InstrID) bool {
	i, ok := id.Index()
	return ok && s.words[i/64]&(1<<(i%64)) != 0
}

// Add inserts id. It panics on an out-of-range ID, which no set can hold.
func (s *InstrSet) Add(id InstrID) {
	i, ok := id.Index()
	if !ok {
		panic(fmt.Sprintf("model: InstrSet.Add of out-of-range instruction %s", id))
	}
	s.words[i/64] |= 1 << (i % 64)
}

// Intersects reports whether the two sets share an instruction.
func (s *InstrSet) Intersects(o *InstrSet) bool {
	for i, w := range s.words {
		if w&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Len returns the number of instructions in the set.
func (s *InstrSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// AppendIDs appends the set's instructions to dst in class-then-variant
// order and returns the extended slice.
func (s *InstrSet) AppendIDs(dst []InstrID) []InstrID {
	for wi, w := range s.words {
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			dst = append(dst, InstrID{Class: InstrClass(i / InstrVariants), Variant: i % InstrVariants})
			w &= w - 1
		}
	}
	return dst
}
