package cookiewalk

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"cookiewalk/internal/measure"
	"cookiewalk/internal/vantage"
)

// The paper publishes its raw data alongside the tooling
// (doi 10.17617/3.TREBZR). This file is the equivalent release path:
// machine-readable exports of the measurement campaign.
//
// Exports are DETERMINISTIC: two studies built from the same Config
// produce byte-identical JSON and CSV, independent of map iteration
// order, worker count or shard count — diffing two release files is a
// meaningful integrity check.

// WallRecord is one verified cookiewall observation in the data
// release.
type WallRecord struct {
	Domain     string   `json:"domain"`
	TLD        string   `json:"tld"`
	Language   string   `json:"language"`
	Category   string   `json:"category"`
	Embedding  string   `json:"embedding"`
	ShadowMode string   `json:"shadow_mode,omitempty"`
	PriceEUR   float64  `json:"price_eur_month"`
	Words      []string `json:"corpus_words"`
	HasAccept  bool     `json:"has_accept"`
	HasSub     bool     `json:"has_subscribe"`
	Provider   string   `json:"provider"`
	OnToplists []string `json:"toplists"`
}

// VPSummary is a per-vantage-point campaign summary.
type VPSummary struct {
	VP          string `json:"vp"`
	Visited     int    `json:"visited"`
	Errors      int    `json:"errors"`
	NoBanner    int    `json:"no_banner"`
	Regular     int    `json:"regular_banners"`
	Cookiewalls int    `json:"cookiewalls_raw"`
	Verified    int    `json:"cookiewalls_verified"`
}

// Dataset is the full machine-readable release.
type Dataset struct {
	Seed      uint64              `json:"seed"`
	Scale     float64             `json:"scale"`
	Reps      int                 `json:"reps"`
	Targets   int                 `json:"targets"`
	Table1    []measure.Table1Row `json:"table1"`
	PerVP     []VPSummary         `json:"per_vp"`
	Walls     []WallRecord        `json:"cookiewalls"`
	Accuracy  measure.Accuracy    `json:"accuracy"`
	BlockRate float64             `json:"adblock_block_rate,omitempty"`
}

// BuildDataset assembles the release from the memoized campaign
// artefacts (resolving them through the experiment DAG store on first
// use). A failed or canceled landscape crawl fails the build: the
// latched artefact may be PARTIAL, and a data release must never
// silently truncate (the error mirrors what Report surfaces).
func (s *Study) BuildDataset() (Dataset, error) {
	ctx := context.Background()
	l := s.landscapeArt(ctx)
	if err := s.landscapeError(); err != nil {
		return Dataset{}, fmt.Errorf("cookiewalk: landscape crawl: %w", err)
	}
	ds := Dataset{
		Seed:    s.cfg.Seed,
		Scale:   s.cfg.Scale,
		Reps:    s.cfg.Reps,
		Targets: l.Targets,
		Table1:  s.crawler.Table1(l),
	}
	for _, vp := range vantage.All() {
		res, ok := l.Result(vp.Name)
		if !ok {
			continue
		}
		ds.PerVP = append(ds.PerVP, VPSummary{
			VP:          res.VP,
			Visited:     res.Visited,
			Errors:      res.Errors,
			NoBanner:    res.NoBanner,
			Regular:     res.Regular,
			Cookiewalls: len(res.Cookiewalls),
			Verified:    len(s.crawler.Verified(res.Cookiewalls)),
		})
	}
	for _, o := range s.germanObservations(ctx) {
		rec := WallRecord{
			Domain:     o.Domain,
			TLD:        o.TLD(),
			Language:   o.Language,
			Category:   o.Category,
			Embedding:  o.Source.String(),
			ShadowMode: o.ShadowMode,
			PriceEUR:   o.MonthlyEUR,
			// Copied: the observation's slice aliases the analysis memo.
			Words:     append([]string(nil), o.MatchedWords...),
			HasAccept: o.HasAccept,
			HasSub:    o.HasSub,
		}
		if site, ok := s.reg.Site(o.Domain); ok {
			rec.Provider = site.Provider.Name
			rec.OnToplists = site.Lists.Countries()
			// Countries() sorts already; the sort stays so the export
			// order never depends on how a site stores its lists.
			sort.Strings(rec.OnToplists)
		}
		ds.Walls = append(ds.Walls, rec)
	}
	ds.Accuracy = s.crawler.Accuracy(l, 1000, s.cfg.Seed)
	return ds, nil
}

// ExportJSON writes the dataset as indented JSON.
func (s *Study) ExportJSON(w io.Writer) error {
	ds, err := s.BuildDataset()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ds); err != nil {
		return fmt.Errorf("cookiewalk: export json: %w", err)
	}
	return nil
}

// ExportWallsCSV writes one CSV row per verified cookiewall.
func (s *Study) ExportWallsCSV(w io.Writer) error {
	ds, err := s.BuildDataset()
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	// One column per WallRecord field, in field order, so the CSV and
	// JSON releases publish the same facts.
	if err := cw.Write([]string{
		"domain", "tld", "language", "category", "embedding",
		"shadow_mode", "price_eur_month", "corpus_words",
		"has_accept", "has_subscribe", "provider", "toplists",
	}); err != nil {
		return err
	}
	for _, rec := range ds.Walls {
		if err := cw.Write([]string{
			rec.Domain, rec.TLD, rec.Language, rec.Category, rec.Embedding,
			rec.ShadowMode, strconv.FormatFloat(rec.PriceEUR, 'f', 4, 64),
			strings.Join(rec.Words, ";"),
			strconv.FormatBool(rec.HasAccept), strconv.FormatBool(rec.HasSub),
			rec.Provider, strings.Join(rec.OnToplists, ";"),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
