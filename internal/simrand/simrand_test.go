package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical values", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(7)
	d1 := parent.Derive("thermal", "pkg0")
	// Consuming parent randomness must not change what a later Derive
	// with the same keys produces.
	for i := 0; i < 10; i++ {
		parent.Uint64()
	}
	d2 := parent.Derive("thermal", "pkg0")
	for i := 0; i < 100; i++ {
		if d1.Uint64() != d2.Uint64() {
			t.Fatalf("derived streams with same keys diverged at step %d", i)
		}
	}
}

func TestDeriveKeySeparation(t *testing.T) {
	parent := New(7)
	a := parent.Derive("ab", "c")
	b := parent.Derive("a", "bc")
	if a.Uint64() == b.Uint64() {
		t.Error("key boundary collision: (ab,c) == (a,bc)")
	}
}

func TestDeriveDistinctKeys(t *testing.T) {
	parent := New(7)
	a := parent.Derive("x")
	b := parent.Derive("y")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("distinct keys share %d values", same)
	}
}

func TestFloat64Bounds(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn bucket %d count %d far from uniform 10000", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(6)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Norm mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Errorf("Norm stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestExpMean(t *testing.T) {
	s := New(8)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(2)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Exp(2) mean = %v, want ~0.5", mean)
	}
}

func TestPoissonMoments(t *testing.T) {
	for _, mean := range []float64{0.5, 3, 12, 50, 200} {
		s := New(uint64(100 + mean))
		const n = 50000
		sum, sumsq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := float64(s.Poisson(mean))
			sum += v
			sumsq += v * v
		}
		m := sum / n
		variance := sumsq/n - m*m
		if math.Abs(m-mean) > 0.05*mean+0.1 {
			t.Errorf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(variance-mean) > 0.1*mean+0.3 {
			t.Errorf("Poisson(%v) variance = %v", mean, variance)
		}
	}
}

func TestPoissonZeroMean(t *testing.T) {
	s := New(1)
	if got := s.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d", got)
	}
	if got := s.Poisson(-1); got != 0 {
		t.Errorf("Poisson(-1) = %d", got)
	}
}

func TestLogUniformRange(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		v := s.LogUniform(0.01, 100)
		if v < 0.01 || v >= 100 {
			t.Fatalf("LogUniform out of range: %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(10)
	f := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := s.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	s := New(11)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[s.WeightedChoice(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WeightedChoice with zero weights did not panic")
		}
	}()
	New(1).WeightedChoice([]float64{0, 0})
}

func TestPickN(t *testing.T) {
	s := New(12)
	got := s.PickN(10, 4)
	if len(got) != 4 {
		t.Fatalf("PickN returned %d values", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("PickN invalid sample %v", got)
		}
		seen[v] = true
	}
}

// TestPickNMatchesPerm pins PickN to its definition, Perm(n)[:k]: the same
// picks from the same draws on both sides of the stack-buffer cutoff.
func TestPickNMatchesPerm(t *testing.T) {
	for _, n := range []int{1, 10, 48, 64, 65} {
		for _, k := range []int{0, 1, n / 2, n} {
			for seed := uint64(1); seed <= 20; seed++ {
				a, b := New(seed), New(seed)
				a.Uint64() // start mid-stream
				b.Uint64()
				got, want := a.PickN(n, k), b.Perm(n)[:k]
				if len(got) != k {
					t.Fatalf("PickN(%d,%d) returned %d values", n, k, len(got))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d: PickN(%d,%d) = %v, want Perm prefix %v", seed, n, k, got, want)
					}
				}
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Fatalf("seed %d: PickN(%d,%d) left the source at %#x, Perm at %#x", seed, n, k, x, y)
				}
			}
		}
	}
}

func TestBool(t *testing.T) {
	s := New(13)
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	trues := 0
	for i := 0; i < 100000; i++ {
		if s.Bool(0.3) {
			trues++
		}
	}
	frac := float64(trues) / 100000
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	s := New(14)
	xs := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 21 {
		t.Errorf("Shuffle lost elements: %v", xs)
	}
}

func TestMul64(t *testing.T) {
	hi, lo := mul64(math.MaxUint64, math.MaxUint64)
	// (2^64-1)^2 = 2^128 - 2^65 + 1
	if hi != math.MaxUint64-1 || lo != 1 {
		t.Errorf("mul64 overflow case: hi=%x lo=%x", hi, lo)
	}
	hi, lo = mul64(1<<32, 1<<32)
	if hi != 1 || lo != 0 {
		t.Errorf("mul64(2^32,2^32): hi=%x lo=%x", hi, lo)
	}
}

// poissonOracle is Poisson as written before its exp(−mean) was memoized.
func poissonOracle(s *Source, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
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

// The memoized Poisson must draw exactly what an unmemoized one draws from
// the same state, over repeated, alternating and degenerate means, and
// leave the stream where the unmemoized one leaves it.
func TestPoissonMemoMatchesFreshSource(t *testing.T) {
	means := []float64{0.5, 0.5, 0.5, 2, 0.5, 2, 2, 1e-9, 29.99, 30, 45, 45, 0, -3, 7.25, 7.25, 0.5}
	memo, oracle := New(11), New(11)
	for round := 0; round < 50; round++ {
		for _, m := range means {
			fresh := *memo
			fresh.poisMean, fresh.poisL = 0, 0
			got, want := memo.Poisson(m), fresh.Poisson(m)
			if o := poissonOracle(oracle, m); got != want || got != o {
				t.Fatalf("round %d mean %v: memoized %d, fresh %d, oracle %d", round, m, got, want, o)
			}
			if memo.state != fresh.state || memo.hasSpare != fresh.hasSpare || memo.spare != fresh.spare {
				t.Fatalf("round %d mean %v: memoized stream state diverged from a fresh source", round, m)
			}
		}
	}
	for i := 0; i < 8; i++ {
		if a, b := memo.Uint64(), oracle.Uint64(); a != b {
			t.Fatalf("draw %d after the sequence: memoized %#x, oracle %#x", i, a, b)
		}
	}
}
