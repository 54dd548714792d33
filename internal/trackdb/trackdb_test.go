package trackdb

import (
	"testing"
)

func TestIsTrackingExact(t *testing.T) {
	if !IsTracking("doubleclick.net") {
		t.Fatal("listed domain not matched")
	}
	if !IsTracking("trackpix1.example") {
		t.Fatal("synthetic tracker not matched")
	}
}

func TestIsTrackingSubdomain(t *testing.T) {
	if !IsTracking("sync.eu.doubleclick.net") {
		t.Fatal("subdomain of listed domain must match")
	}
	if !IsTracking("pixel.trackpix2.example") {
		t.Fatal("subdomain of synthetic tracker must match")
	}
}

func TestIsTrackingNegative(t *testing.T) {
	for _, d := range []string{
		"spiegel.de", "cdnassets.example", "fontlibrary.example",
		"notdoubleclick.net.evil.de", "", "de",
	} {
		if IsTracking(d) {
			t.Errorf("IsTracking(%q) = true", d)
		}
	}
}

func TestIsTrackingNormalization(t *testing.T) {
	if !IsTracking("  TRACKPIX1.EXAMPLE. ") {
		t.Fatal("normalization failed")
	}
}

// Lower-case domains are looked up without allocating: the cookie
// measurement asks once per stored cookie.
func TestIsTrackingDoesNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is exact; skip in -short/-race runs")
	}
	for _, d := range []string{"trackpix1.example", "pixel.trackpix2.example", "sync.eu.doubleclick.net", "www.spiegel.de"} {
		if n := testing.AllocsPerRun(100, func() { IsTracking(d) }); n != 0 {
			t.Errorf("IsTracking(%q): %.1f allocs", d, n)
		}
	}
}

func TestPoolsDisjointFromBenign(t *testing.T) {
	benign := map[string]bool{}
	for _, d := range BenignPool() {
		benign[d] = true
	}
	for _, d := range TrackerPool() {
		if benign[d] {
			t.Fatalf("%s in both pools", d)
		}
		if !IsTracking(d) {
			t.Fatalf("tracker pool domain %s not blocklisted", d)
		}
	}
	for d := range benign {
		if IsTracking(d) {
			t.Fatalf("benign domain %s is blocklisted", d)
		}
	}
}

func TestDomainsSortedAndComplete(t *testing.T) {
	ds := Domains()
	if len(ds) < len(TrackerPool()) {
		t.Fatal("blocklist smaller than tracker pool")
	}
	for i := 1; i < len(ds); i++ {
		if ds[i-1] >= ds[i] {
			t.Fatal("Domains not sorted/deduped")
		}
	}
}

func TestPoolsAreCopies(t *testing.T) {
	p := TrackerPool()
	p[0] = "mutated"
	if TrackerPool()[0] == "mutated" {
		t.Fatal("TrackerPool leaks internal slice")
	}
}
