package xrand

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at step %d", i)
		}
	}
}

func TestKnownSequence(t *testing.T) {
	// Golden values pin the SplitMix64 implementation. If these change,
	// every generated registry changes; that must never happen silently.
	r := New(0)
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x6c45d188009454f}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("step %d: got %#x want %#x", i, got, w)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	r := New(7)
	f1 := r.Fork("alpha")
	f2 := r.Fork("beta")
	f1again := r.Fork("alpha")
	if f1.Uint64() != f1again.Uint64() {
		t.Fatal("same-label forks must match")
	}
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("different-label forks should differ")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.IntRange(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("IntRange(5,9) out of range: %d", v)
		}
		seen[v] = true
	}
	for v := 5; v <= 9; v++ {
		if !seen[v] {
			t.Errorf("value %d never produced", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %g too far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	var sum, sumsq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %g too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %g too far from 1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(17)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(1, 0.5); v <= 0 {
			t.Fatalf("log-normal produced non-positive %g", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestWeightedIndex(t *testing.T) {
	r := New(23)
	counts := make([]int, 3)
	weights := []float64{1, 0, 3}
	for i := 0; i < 40000; i++ {
		counts[r.WeightedIndex(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio %g too far from 3", ratio)
	}
}

func TestWeightedIndexPanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).WeightedIndex([]float64{0, -1})
}

func TestHash64Stability(t *testing.T) {
	// FNV-1a golden values.
	if got := Hash64(""); got != 14695981039346656037 {
		t.Fatalf("Hash64(\"\") = %d", got)
	}
	if Hash64("a") == Hash64("b") {
		t.Fatal("trivial collision")
	}
}

func TestSubSeedOrderMatters(t *testing.T) {
	if SubSeed(1, "a", "b") == SubSeed(1, "b", "a") {
		t.Fatal("SubSeed must be order-sensitive")
	}
	if SubSeed(1, "a") == SubSeed(2, "a") {
		t.Fatal("SubSeed must depend on base seed")
	}
}

func TestShuffleStringsAndPick(t *testing.T) {
	r := New(31)
	s := []string{"a", "b", "c", "d", "e"}
	orig := append([]string(nil), s...)
	r.ShuffleStrings(s)
	seen := map[string]bool{}
	for _, v := range s {
		seen[v] = true
	}
	for _, v := range orig {
		if !seen[v] {
			t.Fatalf("shuffle lost element %q", v)
		}
	}
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		counts[r.Pick(orig)]++
	}
	for _, v := range orig {
		if counts[v] == 0 {
			t.Fatalf("Pick never chose %q", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(37)
	n := 0
	for i := 0; i < 100000; i++ {
		if r.Bool(0.25) {
			n++
		}
	}
	if n < 23500 || n > 26500 {
		t.Fatalf("Bool(0.25) hit %d/100000", n)
	}
}

func TestIntRangePanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).IntRange(5, 4)
}

func TestQuickIntnAlwaysInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		v := New(seed).Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubSeedDeterministic(t *testing.T) {
	f := func(seed uint64, a, b string) bool {
		return SubSeed(seed, a, b) == SubSeed(seed, a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestJitterBoundsAndDeterminism pins the jitter contract the retry
// loops depend on: every delay lands in [base/2, base], the schedule is
// a pure function of (seed, call, attempt), and different seeds (i.e.
// different workers) decorrelate.
func TestJitterBoundsAndDeterminism(t *testing.T) {
	base := 100 * time.Millisecond
	same := 0
	for attempt := 0; attempt < 8; attempt++ {
		d1 := jitter(1, 1, attempt, base)
		d2 := jitter(2, 1, attempt, base)
		if d1 < base/2 || d1 > base {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d1, base/2, base)
		}
		if d1 != jitter(1, 1, attempt, base) {
			t.Fatalf("attempt %d: jitter not deterministic", attempt)
		}
		if d1 == d2 {
			same++
		}
	}
	if same == 8 {
		t.Fatal("two seeds produced identical 8-delay schedules — no decorrelation")
	}
}

// TestBackoffSchedule pins the envelope Backoff jitters: 100ms when no
// base is given, doubled per attempt, capped at 2s, and a base above
// the cap used as given for the first delay only.
func TestBackoffSchedule(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name     string
		base     time.Duration
		envelope []time.Duration
	}{
		{"default", 0, []time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 2000 * ms, 2000 * ms}},
		{"negative", -time.Second, []time.Duration{100 * ms, 200 * ms}},
		{"doubling", 80 * ms, []time.Duration{80 * ms, 160 * ms, 320 * ms, 640 * ms, 1280 * ms, 2000 * ms}},
		{"cap", 1500 * ms, []time.Duration{1500 * ms, 2000 * ms, 2000 * ms}},
		{"above cap", 3 * time.Second, []time.Duration{3 * time.Second, 2000 * ms, 2000 * ms}},
	} {
		for seed := uint64(0); seed < 4; seed++ {
			for attempt, env := range tc.envelope {
				got := Backoff(seed, 7, attempt, tc.base)
				if want := jitter(seed, 7, attempt, env); got != want {
					t.Fatalf("%s: seed %d attempt %d: Backoff = %v, want %v (jitter of %v)",
						tc.name, seed, attempt, got, want, env)
				}
				if got < env/2 || got > env {
					t.Fatalf("%s: seed %d attempt %d: %v outside [%v, %v]", tc.name, seed, attempt, got, env/2, env)
				}
			}
		}
	}
}
