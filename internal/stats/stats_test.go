package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
}

func TestMedian(t *testing.T) {
	if !almost(Median([]float64{5, 1, 3}), 3) {
		t.Fatal("odd median")
	}
	if !almost(Median([]float64{4, 1, 3, 2}), 2.5) {
		t.Fatal("even median")
	}
	if Median(nil) != 0 {
		t.Fatal("empty median")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if !almost(Quantile(xs, 0.5), 5) {
		t.Fatal("q50")
	}
	if !almost(Quantile(xs, 0.9), 9) {
		t.Fatal("q90")
	}
	if !almost(Quantile(xs, 0), 0) || !almost(Quantile(xs, 1), 10) {
		t.Fatal("extremes")
	}
	if !almost(Quantile([]float64{1, 2}, 0.5), 1.5) {
		t.Fatal("interpolation")
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := map[float64]float64{0.5: 0, 1: 0.25, 2: 0.75, 2.5: 0.75, 3: 1, 99: 1}
	for x, want := range cases {
		if got := e.At(x); !almost(got, want) {
			t.Errorf("ECDF(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(5) != 0 {
		t.Fatal("empty ECDF")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if !almost(Pearson(xs, ys), 1) {
		t.Fatal("perfect positive")
	}
	neg := []float64{10, 8, 6, 4, 2}
	if !almost(Pearson(xs, neg), -1) {
		t.Fatal("perfect negative")
	}
	if Pearson(xs, []float64{7, 7, 7, 7, 7}) != 0 {
		t.Fatal("zero variance must be 0")
	}
	if Pearson(xs, ys[:3]) != 0 {
		t.Fatal("length mismatch must be 0")
	}
}

func TestSpearman(t *testing.T) {
	// Monotone but non-linear: Spearman 1, Pearson < 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	if !almost(Spearman(xs, ys), 1) {
		t.Fatalf("spearman = %g", Spearman(xs, ys))
	}
	if Pearson(xs, ys) >= 1 {
		t.Fatal("pearson should be < 1 here")
	}
	// Reversed order: -1.
	rev := []float64{5, 4, 3, 2, 1}
	if !almost(Spearman(xs, rev), -1) {
		t.Fatal("reversed spearman")
	}
	if Spearman(xs, ys[:3]) != 0 {
		t.Fatal("length mismatch must be 0")
	}
}

func TestRanksWithTies(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !almost(r[i], want[i]) {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

func TestRatio(t *testing.T) {
	if !almost(Ratio(42, 1), 42) || Ratio(1, 0) != 0 {
		t.Fatal("ratio")
	}
}

// Property: median lies between min and max; ECDF is monotone.
func TestQuickMedianBounds(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			// The even-length midpoint (a+b)/2 overflows near
			// MaxFloat64; bound the domain like the Pearson test.
			if !math.IsNaN(x) && math.Abs(x) < 1e300 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Median(clean)
		return m >= min(clean) && m <= max(clean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickECDFMonotone(t *testing.T) {
	f := func(xs []float64, a, b float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) {
				return true
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		e := NewECDF(xs)
		return e.At(a) <= e.At(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPearsonSymmetricAndBounded(t *testing.T) {
	f := func(pairs [][2]float64) bool {
		if len(pairs) < 2 {
			return true
		}
		var xs, ys []float64
		for _, p := range pairs {
			// Bound magnitudes: the intermediate sums overflow near
			// MaxFloat64, which is far outside this library's domain
			// (cookie counts, euro prices).
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) ||
				math.Abs(p[0]) > 1e150 || math.Abs(p[1]) > 1e150 {
				return true
			}
			xs = append(xs, p[0])
			ys = append(ys, p[1])
		}
		r1, r2 := Pearson(xs, ys), Pearson(ys, xs)
		return math.Abs(r1-r2) < 1e-9 && r1 >= -1.0000001 && r1 <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
