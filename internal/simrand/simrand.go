// Package simrand provides the deterministic randomness used throughout the
// simulation. Every random decision flows from a Source seeded explicitly,
// and independent substreams are derived by hashing string keys, so any
// experiment is exactly reproducible from its seed regardless of the order
// in which other components consume randomness.
package simrand

import (
	"math"
)

// Source is a deterministic pseudo-random number generator based on
// SplitMix64 (Steele et al., "Fast splittable pseudorandom number
// generators"). It is small, fast, passes BigCrush, and — crucially for a
// simulation — is trivially splittable into independent substreams.
//
// A Source is not safe for concurrent use; derive one substream per
// goroutine instead.
type Source struct {
	state uint64
	// seed is the immutable creation seed; Derive hashes keys against it
	// rather than against the advancing state, so derivation is stable
	// regardless of how much randomness the parent has consumed.
	seed uint64
	// spare holds a cached second normal variate from the Box-Muller
	// transform.
	spare    float64
	hasSpare bool
	// block, when non-nil, buffers pre-drawn Uint64 values (see SetBlock):
	// Uint64 serves block[bpos:] and refills the buffer in one tight loop
	// when it runs dry. The observed sequence is identical to unbuffered
	// draws; only the raw generator state runs ahead by the unserved tail.
	block []uint64
	bpos  int
	// poisMean and poisL memoize Poisson's math.Exp(-mean) for the last
	// small mean: hot loops repeat their means, and a hit needs an equal
	// mean, so the bits are Exp's own. The zero value never hits (Poisson
	// only looks up positive means).
	poisMean, poisL float64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed, seed: seed}
}

// golden is the SplitMix64 increment (floor(2^64/phi), odd).
const golden = 0x9E3779B97F4A7C15

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	if s.block != nil {
		if s.bpos == len(s.block) {
			s.fillRaw(s.block)
			s.bpos = 0
		}
		v := s.block[s.bpos]
		s.bpos++
		return v
	}
	s.state += golden
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fillRaw fills dst with successive SplitMix64 outputs, hoisting the state
// into a local for the whole block. It bypasses any block buffer — it IS
// the refill primitive.
func (s *Source) fillRaw(dst []uint64) {
	st := s.state
	for i := range dst {
		st += golden
		z := st
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		dst[i] = z ^ (z >> 31)
	}
	s.state = st
}

// Uint64Block fills dst with the next len(dst) values of the stream —
// exactly the sequence len(dst) successive Uint64 calls would produce —
// amortizing per-call overhead by keeping the generator state in a
// register across the block.
func (s *Source) Uint64Block(dst []uint64) {
	if s.block != nil {
		// Buffered mode: serve through the buffer so the observed
		// sequence stays aligned with interleaved scalar draws.
		for i := range dst {
			dst[i] = s.Uint64()
		}
		return
	}
	s.fillRaw(dst)
}

// FloatBlock fills dst with the next len(dst) uniform values in [0, 1),
// consuming exactly the draws len(dst) successive Float64 calls would.
func (s *Source) FloatBlock(dst []float64) {
	if s.block != nil {
		for i := range dst {
			dst[i] = s.Float64()
		}
		return
	}
	st := s.state
	for i := range dst {
		st += golden
		z := st
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		dst[i] = float64((z^(z>>31))>>11) / (1 << 53)
	}
	s.state = st
}

// SetBlock puts the Source into buffered mode using buf as scratch: draws
// are served from buf and the buffer is refilled len(buf) values at a time
// via one tight loop. The sequence every consumer observes is identical to
// unbuffered operation; the only difference is that up to len(buf)-1
// pre-drawn values are discarded when the Source is re-derived or
// abandoned, so buffered mode is ONLY for discard-after-use streams (a
// per-run substream that is re-derived before its next use), never for a
// persistent stream whose future draws matter. SetBlock(nil) returns the
// Source to unbuffered mode. Re-deriving into the Source (DeriveInto)
// clears the buffer; callers re-apply SetBlock after each derivation.
func (s *Source) SetBlock(buf []uint64) {
	if len(buf) == 0 {
		s.block, s.bpos = nil, 0
		return
	}
	s.block = buf
	s.bpos = len(buf) // empty: first draw triggers a refill
}

// Derive returns an independent substream keyed by the given strings. The
// parent stream is not advanced, so the derived stream's values do not
// depend on how much randomness the parent has already produced.
func (s *Source) Derive(keys ...string) *Source {
	d := &Source{}
	s.DeriveInto(d, keys...)
	return d
}

// DeriveInto is Derive writing the substream into *dst in place, so a hot
// loop that derives one substream per iteration (the testcase runner) can
// reuse a scratch Source instead of allocating. dst is overwritten
// wholesale — any cached Box-Muller spare is discarded, exactly as a fresh
// Source carries none — and the produced stream is identical to Derive's.
// dst must not be shared across goroutines.
func (s *Source) DeriveInto(dst *Source, keys ...string) {
	h := s.seed ^ 0x51_7C_C1_B7_27_22_0A_95
	for _, k := range keys {
		for i := 0; i < len(k); i++ {
			h ^= uint64(k[i])
			h *= 0x100000001B3 // FNV-64 prime
		}
		h ^= 0xFF // key separator so ("ab","c") != ("a","bc")
		h *= 0x100000001B3
	}
	// Run the mixed hash through one SplitMix64 step so poor keys still
	// yield well-distributed states.
	*dst = Source{state: h}
	dst.state = dst.Uint64()
	dst.seed = dst.state
}

// DeriveIntoBytes is DeriveInto with one additional trailing key supplied
// as raw bytes, so a caller that formats the final key into a reusable
// buffer (the runner's virtual-clock stamp) avoids the string allocation.
// The produced stream is identical to
// DeriveInto(dst, append(keys, string(tail))...).
func (s *Source) DeriveIntoBytes(dst *Source, tail []byte, keys ...string) {
	h := s.seed ^ 0x51_7C_C1_B7_27_22_0A_95
	for _, k := range keys {
		for i := 0; i < len(k); i++ {
			h ^= uint64(k[i])
			h *= 0x100000001B3
		}
		h ^= 0xFF
		h *= 0x100000001B3
	}
	for i := 0; i < len(tail); i++ {
		h ^= uint64(tail[i])
		h *= 0x100000001B3
	}
	h ^= 0xFF
	h *= 0x100000001B3
	*dst = Source{state: h}
	dst.state = dst.Uint64()
	dst.seed = dst.state
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("simrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill
	// here; modulo bias for n << 2^64 is negligible for simulation use,
	// but use multiply-shift to avoid it anyway.
	hi, _ := mul64(s.Uint64(), uint64(n))
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xFFFFFFFF
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a0 * b0
	lo = t & mask
	c := t >> 32
	t = a1*b0 + c
	c = t >> 32
	m := t & mask
	t = a0*b1 + m
	lo |= (t & mask) << 32
	hi = a1*b1 + c + t>>32
	return hi, lo
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Range returns a uniform value in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Norm returns a normally distributed value with the given mean and
// standard deviation, via the Box-Muller transform.
func (s *Source) Norm(mean, stddev float64) float64 {
	if s.hasSpare {
		s.hasSpare = false
		return mean + stddev*s.spare
	}
	var u, v, r2 float64
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		r2 = u*u + v*v
		if r2 > 0 && r2 < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(r2) / r2)
	s.spare = v * f
	s.hasSpare = true
	return mean + stddev*u*f
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("simrand: Exp with non-positive rate")
	}
	// 1-Float64() is in (0,1], avoiding log(0).
	return -math.Log(1-s.Float64()) / rate
}

// Poisson returns a Poisson-distributed count with the given mean. For
// small means it uses Knuth's product method; for large means a
// normal approximation with continuity correction (adequate for counting
// simulated SDC events).
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		if mean != s.poisMean {
			s.poisMean, s.poisL = mean, math.Exp(-mean)
		}
		l := s.poisL
		k := 0
		p := 1.0
		for {
			p *= s.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := s.Norm(mean, math.Sqrt(mean))
	if n < 0 {
		return 0
	}
	return int(n + 0.5)
}

// LogUniform returns a value whose base-10 logarithm is uniform in
// [log10(lo), log10(hi)). Both bounds must be positive.
func (s *Source) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi <= lo {
		panic("simrand: LogUniform requires 0 < lo < hi")
	}
	return math.Pow(10, s.Range(math.Log10(lo), math.Log10(hi)))
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	s.permInto(p)
	return p
}

// permInto fills p with Perm(len(p)), drawing exactly Perm's draws.
func (s *Source) permInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle pseudo-randomly reorders n elements using the provided swap
// function (same contract as math/rand.Shuffle).
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// WeightedChoice returns an index in [0, len(weights)) drawn proportionally
// to the (non-negative) weights. It panics if all weights are zero or the
// slice is empty.
func (s *Source) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("simrand: negative weight")
		}
		total += w
	}
	if total == 0 {
		panic("simrand: WeightedChoice with zero total weight")
	}
	x := s.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// PickN returns k distinct indices uniformly sampled from [0, n) in random
// order: Perm(n)[:k], from the same draws. For n <= 64 the permutation is
// built on the stack and only the k picks are allocated. It panics if
// k > n.
func (s *Source) PickN(n, k int) []int {
	if k > n {
		panic("simrand: PickN with k > n")
	}
	if n > 64 {
		return s.Perm(n)[:k]
	}
	var buf [64]int
	p := buf[:n]
	s.permInto(p)
	return append(make([]int, 0, k), p[:k]...)
}
