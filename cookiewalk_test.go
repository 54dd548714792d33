package cookiewalk

import (
	"strings"
	"sync"
	"testing"
)

// GoldenConfig is the study configuration testdata/golden_all.txt
// pins: seed 42, scale 0.02, reps 2.
func GoldenConfig() Config { return Config{Seed: 42, Scale: 0.02, Reps: 2} }

// GoldenStudy is the one study at GoldenConfig that a test binary
// shares, built on first use. Tests and benchmarks that read from it
// (targets, single visits, single report sections) share it; a test
// that pins a whole Report, or needs a config of its own, builds its
// own Study. It lives in a test file of package cookiewalk, so it
// exists only in test binaries, and cookiewalk_test reaches it too.
var GoldenStudy = sync.OnceValue(func() *Study { return New(GoldenConfig()) })

func TestAnalyzeCookiewall(t *testing.T) {
	s := GoldenStudy()
	walls := s.CookiewallDomains()
	if len(walls) == 0 {
		t.Fatal("no cookiewall domains")
	}
	rep, err := s.Analyze("Germany", walls[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.BannerKind != "cookiewall" {
		t.Fatalf("kind = %q", rep.BannerKind)
	}
	if rep.HasReject {
		t.Fatal("cookiewall with reject")
	}
	if rep.PriceEUR <= 0 {
		t.Fatal("no price detected")
	}
}

func TestAnalyzeUnknownVP(t *testing.T) {
	s := GoldenStudy()
	if _, err := s.Analyze("Mars", "example.de"); err == nil {
		t.Fatal("expected error for unknown VP")
	}
}

func TestAnalyzeWithBlocker(t *testing.T) {
	s := GoldenStudy()
	// Find an SMP site (blockable).
	var blockable string
	for _, d := range s.CookiewallDomains() {
		rep, err := s.Analyze("Germany", d)
		if err == nil && rep.BannerKind == "cookiewall" {
			rep2, err := s.AnalyzeWithBlocker("Germany", d)
			if err == nil && rep2.BannerKind == "none" {
				blockable = d
				break
			}
		}
	}
	if blockable == "" {
		t.Fatal("no blockable cookiewall found")
	}
}

func TestVantagePoints(t *testing.T) {
	s := GoldenStudy()
	vps := s.VantagePoints()
	if len(vps) != 8 || vps[3] != "Germany" {
		t.Fatalf("vps = %v", vps)
	}
}

func TestDetectInHTML(t *testing.T) {
	rep := DetectInHTML(`<html><body><div class="consent-layer" role="dialog" style="position:fixed;top:0">
	<p>Read ad-free for $2.99 per month or accept cookies.</p>
	<button>Accept all</button><button>Subscribe</button></div></body></html>`)
	if rep.BannerKind != "cookiewall" {
		t.Fatalf("kind = %q", rep.BannerKind)
	}
	if rep.PriceEUR <= 2.5 || rep.PriceEUR >= 3 {
		t.Fatalf("price = %g", rep.PriceEUR)
	}
}

func TestReportTable1(t *testing.T) {
	s := GoldenStudy()
	text, err := s.Report(ExpTable1)
	if err != nil {
		t.Fatal(err)
	}
	// The facade must reproduce the paper's headline row.
	if !strings.Contains(text, "Germany") || !strings.Contains(text, "280") ||
		!strings.Contains(text, "259") {
		t.Fatalf("table 1:\n%s", text)
	}
}

func TestReportAccuracy(t *testing.T) {
	s := GoldenStudy()
	text, err := s.Report(ExpAccuracy)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "98.2%") {
		t.Fatalf("accuracy:\n%s", text)
	}
}

func TestReportUnknown(t *testing.T) {
	s := GoldenStudy()
	if _, err := s.Report(Experiment("nonsense")); err == nil {
		t.Fatal("expected error")
	}
}

func TestExperimentsList(t *testing.T) {
	exps := Experiments()
	if len(exps) != 16 {
		t.Fatalf("experiments = %d", len(exps))
	}
	seen := map[Experiment]bool{}
	for _, e := range exps {
		if seen[e] {
			t.Fatalf("duplicate experiment %s", e)
		}
		seen[e] = true
	}
}

func TestNewBrowser(t *testing.T) {
	s := GoldenStudy()
	b, err := s.NewBrowser("Sweden")
	if err != nil {
		t.Fatal(err)
	}
	page, err := b.Open("https://" + s.Targets()[0] + "/")
	if err != nil {
		t.Fatal(err)
	}
	if page.Status != 200 {
		t.Fatalf("status = %d", page.Status)
	}
}

func TestHandlerServesPortal(t *testing.T) {
	s := GoldenStudy()
	if s.Handler() == nil || s.Transport() == nil || s.Crawler() == nil {
		t.Fatal("accessors returned nil")
	}
}

func TestScreenshot(t *testing.T) {
	s := GoldenStudy()
	box, err := s.Screenshot("Germany", s.CookiewallDomains()[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(box, "cookiewall") || !strings.Contains(box, "[ ") {
		t.Fatalf("screenshot:\n%s", box)
	}
	// A no-banner visitor gets the empty box, not an error.
	var geoRestricted string
	for _, d := range s.CookiewallDomains() {
		rep, err := s.Analyze("US East", d)
		if err == nil && rep.BannerKind == "none" {
			geoRestricted = d
			break
		}
	}
	if geoRestricted != "" {
		box, err := s.Screenshot("US East", geoRestricted)
		if err != nil || !strings.Contains(box, "no banner") {
			t.Fatalf("no-banner screenshot: %v\n%s", err, box)
		}
	}
	if _, err := s.Screenshot("Mars", "x.de"); err == nil {
		t.Fatal("unknown VP must error")
	}
}
