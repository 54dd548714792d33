package synthweb

import "testing"

// generateAllocBudget caps the allocations of one scale-1 Generate.
// Measured 56 737: about one string per domain name plus one Site
// chunk per 128 filler sites. Before byte-buffer name draws, value-typed
// toplists and chunked filler Sites it was 1 109 168. The budget leaves
// headroom for toolchain drift, and a map per site (+53 k) or a string
// per name attempt (+400 k) would still break it.
const generateAllocBudget = 80000

// TestGenerateAllocBudget pins the allocation count of building the
// full-scale universe, which every cookiewalk.New pays.
func TestGenerateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is exact; skip in -short/-race runs")
	}
	got := testing.AllocsPerRun(1, func() { Generate(Config{Seed: 42}) })
	if got > generateAllocBudget {
		t.Fatalf("Generate(scale 1) made %.0f allocs, budget %d", got, generateAllocBudget)
	}
	t.Logf("Generate(scale 1): %.0f allocs", got)
}

// BenchmarkGenerate measures building the full-scale universe.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		Generate(Config{Seed: 42})
	}
}
