package cookiewalk

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

func TestBuildDataset(t *testing.T) {
	s := GoldenStudy()
	ds, err := s.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Targets != len(s.Targets()) {
		t.Fatalf("targets = %d", ds.Targets)
	}
	if len(ds.Table1) != 8 || len(ds.PerVP) != 8 {
		t.Fatalf("table1 = %d, perVP = %d", len(ds.Table1), len(ds.PerVP))
	}
	if len(ds.Walls) != 280 {
		t.Fatalf("walls = %d", len(ds.Walls))
	}
	for _, w := range ds.Walls {
		if w.Domain == "" || w.TLD == "" || w.PriceEUR <= 0 || w.Provider == "" {
			t.Fatalf("incomplete record: %+v", w)
		}
	}
	if ds.Accuracy.Detected != 285 {
		t.Fatalf("accuracy detected = %d", ds.Accuracy.Detected)
	}
}

func TestExportJSONRoundTrip(t *testing.T) {
	s := GoldenStudy()
	var buf bytes.Buffer
	if err := s.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var ds Dataset
	if err := json.Unmarshal(buf.Bytes(), &ds); err != nil {
		t.Fatal(err)
	}
	if len(ds.Walls) != 280 || ds.Seed != 42 {
		t.Fatalf("round trip lost data: %d walls, seed %d", len(ds.Walls), ds.Seed)
	}
	// Spot-check a German SMP wall exists with its platform recorded.
	foundSMP := false
	for _, w := range ds.Walls {
		if w.Provider == "contentpass" && w.Language == "de" {
			foundSMP = true
			break
		}
	}
	if !foundSMP {
		t.Fatal("no contentpass wall in export")
	}
}

func TestExportWallsCSV(t *testing.T) {
	s := GoldenStudy()
	var buf bytes.Buffer
	if err := s.ExportWallsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	records, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 281 { // header + 280 walls
		t.Fatalf("csv rows = %d", len(records))
	}
	// The CSV publishes every WallRecord field, in field order — the
	// same facts as the JSON release.
	wantHeader := []string{
		"domain", "tld", "language", "category", "embedding",
		"shadow_mode", "price_eur_month", "corpus_words",
		"has_accept", "has_subscribe", "provider", "toplists",
	}
	if got := strings.Join(records[0], ","); got != strings.Join(wantHeader, ",") {
		t.Fatalf("header = %v, want %v", records[0], wantHeader)
	}
	sawToplist := false
	for _, rec := range records[1:] {
		// Every row parses a positive price.
		if !strings.Contains(rec[6], ".") {
			t.Fatalf("price cell = %q", rec[6])
		}
		if rec[8] != "true" && rec[8] != "false" {
			t.Fatalf("has_accept cell = %q", rec[8])
		}
		if rec[9] != "true" && rec[9] != "false" {
			t.Fatalf("has_subscribe cell = %q", rec[9])
		}
		if rec[11] != "" {
			sawToplist = true
		}
	}
	if !sawToplist {
		t.Fatal("no row lists any toplist membership")
	}
}

// TestExportDeterminism pins the release-integrity guarantee: two
// independently built studies with identical Config produce
// byte-identical JSON and CSV exports, and re-exporting from one study
// is stable too. (This is where the unsorted toplist map iteration
// used to leak nondeterminism into the release files.)
func TestExportDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second scale-0.02 universe")
	}
	export := func(s *Study) (string, string) {
		var j, c bytes.Buffer
		if err := s.ExportJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := s.ExportWallsCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	s1 := GoldenStudy()
	json1, csv1 := export(s1)
	json1b, csv1b := export(s1)
	if json1 != json1b || csv1 != csv1b {
		t.Fatal("re-export from the same study differs")
	}
	s2 := New(Config{Seed: 42, Scale: 0.02, Reps: 2})
	json2, csv2 := export(s2)
	if json1 != json2 {
		t.Fatal("independent studies exported different JSON")
	}
	if csv1 != csv2 {
		t.Fatal("independent studies exported different CSV")
	}
}
