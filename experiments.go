package cookiewalk

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"cookiewalk/internal/campaign"
	"cookiewalk/internal/measure"
	"cookiewalk/internal/report"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/vantage"
)

// Experiment identifies one reproducible artefact of the paper.
type Experiment string

// The paper's tables and figures, §3 accuracy, §4.1 prevalence, §4.4
// SMP summary and §4.5 bypass.
const (
	ExpTable1     Experiment = "table1"
	ExpFigure1    Experiment = "fig1"
	ExpFigure2    Experiment = "fig2"
	ExpFigure3    Experiment = "fig3"
	ExpFigure4    Experiment = "fig4"
	ExpFigure5    Experiment = "fig5"
	ExpFigure6    Experiment = "fig6"
	ExpAccuracy   Experiment = "accuracy"
	ExpPrevalence Experiment = "prevalence"
	ExpEmbeddings Experiment = "embeddings"
	ExpSMP        Experiment = "smp"
	ExpBypass     Experiment = "bypass"
	// Extensions: the §3/§5 discussion items implemented as experiments.
	ExpAblation   Experiment = "ablation"
	ExpAutoReject Experiment = "autoreject"
	ExpRevocation Experiment = "revocation"
	ExpBotCheck   Experiment = "botcheck"
	ExpAll        Experiment = "all"
)

// Experiments lists every runnable experiment id in report order.
func Experiments() []Experiment {
	return []Experiment{
		ExpTable1, ExpEmbeddings, ExpAccuracy, ExpPrevalence,
		ExpFigure1, ExpFigure2, ExpFigure3, ExpFigure4, ExpFigure5,
		ExpFigure6, ExpSMP, ExpBypass,
		ExpAblation, ExpAutoReject, ExpRevocation, ExpBotCheck,
	}
}

// buildRegistry declares the experiment DAG: the shared artefacts
// (landscape campaign, derived domain lists, the Figure-4 cookie
// campaign that Figure 6 reuses) and one node per experiment rendering
// its report section. Dependency edges mirror how the paper derives
// every analysis from one measurement campaign plus follow-up crawls.
func buildRegistry() map[string]*node {
	m := map[string]*node{}
	art := func(id string, deps []string, run func(ctx context.Context, s *Study) (any, error)) {
		m[id] = &node{id: id, deps: deps, run: run}
	}
	exp := func(e Experiment, deps []string, run func(ctx context.Context, s *Study) (string, error)) {
		m[string(e)] = &node{id: string(e), deps: deps, run: func(ctx context.Context, s *Study) (any, error) {
			return run(ctx, s)
		}}
	}

	// Artefacts.
	art(artLandscape, nil, func(ctx context.Context, s *Study) (any, error) {
		// The error can be non-nil for checkpointed crawls (journal
		// setup or I/O failure) or on cancellation; the landscape value
		// stays valid for inspection either way, so both are latched.
		l, err := s.crawler.Landscape(ctx, vantage.All(), s.reg.TargetList())
		return l, err
	})
	art(artGerman, []string{artLandscape}, func(ctx context.Context, s *Study) (any, error) {
		res, _ := s.landscapeArt(ctx).Result("Germany")
		return s.crawler.Verified(res.Cookiewalls), nil
	})
	art(artWalls, []string{artGerman}, func(ctx context.Context, s *Study) (any, error) {
		german := s.germanObservations(ctx)
		// Exact capacity: the artefact is shared by every consumer, and
		// a full backing array forces any appender (autoreject's sample
		// assembly) to reallocate instead of scribbling into the slice
		// the sibling campaigns crawl.
		walls := make([]string, 0, len(german))
		for _, o := range german {
			walls = append(walls, o.Domain)
		}
		sort.Strings(walls)
		return walls, nil
	})
	art(artSummary, []string{artLandscape, artGerman}, func(ctx context.Context, s *Study) (any, error) {
		return s.crawler.SummarizeRound(s.landscapeArt(ctx), s.germanObservations(ctx)), nil
	})
	art(artFig4, []string{artLandscape}, func(ctx context.Context, s *Study) (any, error) {
		vp, _ := vantage.ByName("Germany")
		f, err := s.crawler.RunFigure4(ctx, s.landscapeArt(ctx), vp, s.cfg.Reps, s.cfg.Seed)
		if err != nil {
			return measure.Figure4{}, err
		}
		return f, nil
	})

	// Experiments.
	exp(ExpTable1, []string{artLandscape}, func(ctx context.Context, s *Study) (string, error) {
		return report.Table1(s.crawler.Table1(s.landscapeArt(ctx))), nil
	})
	exp(ExpEmbeddings, []string{artGerman}, func(ctx context.Context, s *Study) (string, error) {
		return report.EmbeddingReport(s.germanObservations(ctx)), nil
	})
	exp(ExpAccuracy, []string{artLandscape}, func(ctx context.Context, s *Study) (string, error) {
		return report.AccuracyReport(s.crawler.Accuracy(s.landscapeArt(ctx), 1000, s.cfg.Seed)), nil
	})
	exp(ExpPrevalence, []string{artLandscape}, func(ctx context.Context, s *Study) (string, error) {
		l := s.landscapeArt(ctx)
		overall, top1k, perCountry := s.crawler.Prevalence(l)
		text := report.PrevalenceReport(overall, top1k, perCountry)
		text += report.BannerRatesReport(measure.RatesPerVP(l))
		return text, nil
	})
	exp(ExpFigure1, []string{artGerman}, func(ctx context.Context, s *Study) (string, error) {
		shares := measure.CategoryShares(s.germanObservations(ctx), synthweb.Categories)
		return report.Figure1(shares), nil
	})
	exp(ExpFigure2, []string{artGerman}, func(ctx context.Context, s *Study) (string, error) {
		return report.Figure2(measure.Prices(s.germanObservations(ctx))), nil
	})
	exp(ExpFigure3, []string{artGerman}, func(ctx context.Context, s *Study) (string, error) {
		return report.Figure3(measure.CategoryPrices(s.germanObservations(ctx))), nil
	})
	exp(ExpFigure4, []string{artFig4}, func(ctx context.Context, s *Study) (string, error) {
		f, err := s.figure4(ctx)
		if err != nil {
			return "", err
		}
		return report.Figure4(f), nil
	})
	exp(ExpFigure5, nil, func(ctx context.Context, s *Study) (string, error) {
		vp, _ := vantage.ByName("Germany")
		f, err := s.crawler.RunFigure5(ctx, vp, "contentpass", s.cfg.Reps)
		if err != nil {
			return "", err
		}
		return report.Figure5(f), nil
	})
	exp(ExpFigure6, []string{artFig4, artGerman}, func(ctx context.Context, s *Study) (string, error) {
		f, err := s.figure4(ctx)
		if err != nil {
			return "", err
		}
		corr, _, _ := measure.TrackingPriceCorrelation(s.germanObservations(ctx), f.Cookiewall)
		return report.Figure6(corr), nil
	})
	exp(ExpSMP, nil, func(ctx context.Context, s *Study) (string, error) {
		var b strings.Builder
		for _, p := range s.crawler.SMPSummary([]string{"contentpass", "freechoice"}) {
			b.WriteString(report.SMPReport(p.Platform, p.Partners, p.InTargets))
		}
		return b.String(), nil
	})
	exp(ExpBypass, []string{artWalls}, func(ctx context.Context, s *Study) (string, error) {
		vp, _ := vantage.ByName("Germany")
		bp, err := s.crawler.RunBypass(ctx, vp, s.wallDomains(ctx), s.cfg.Reps, DefaultBlocker())
		if err != nil {
			return "", err
		}
		return report.BypassReport(bp), nil
	})
	exp(ExpAblation, []string{artWalls}, func(ctx context.Context, s *Study) (string, error) {
		vp, _ := vantage.ByName("Germany")
		a, err := s.crawler.RunAblation(ctx, vp, s.wallDomains(ctx))
		if err != nil {
			return "", err
		}
		return report.AblationReport(a), nil
	})
	exp(ExpAutoReject, []string{artWalls, artLandscape}, func(ctx context.Context, s *Study) (string, error) {
		vp, _ := vantage.ByName("Germany")
		walls := s.wallDomains(ctx)
		// Assemble the sample in a fresh slice: walls is the shared
		// artefact the bypass/ablation/revocation campaigns crawl.
		sample := make([]string, 0, len(walls)+280)
		sample = append(sample, walls...)
		sample = append(sample, s.regularSample(ctx, 280)...)
		ar, err := s.crawler.RunAutoReject(ctx, vp, sample)
		if err != nil {
			return "", err
		}
		return report.AutoRejectReport(ar), nil
	})
	exp(ExpRevocation, []string{artWalls}, func(ctx context.Context, s *Study) (string, error) {
		vp, _ := vantage.ByName("Germany")
		r, err := s.crawler.RunRevocation(ctx, vp, s.wallDomains(ctx))
		if err != nil {
			return "", err
		}
		return report.RevocationReport(r), nil
	})
	exp(ExpBotCheck, []string{artLandscape}, func(ctx context.Context, s *Study) (string, error) {
		vp, _ := vantage.ByName("Germany")
		sample := s.regularSample(ctx, 1000)
		bc, err := s.crawler.RunBotCheck(ctx, vp, sample)
		if err != nil {
			return "", err
		}
		return report.BotCheckReport(bc), nil
	})
	return m
}

// Landscape runs (or returns the memoized) eight-VP crawl over all
// targets. Every experiment that needs detections shares it, exactly
// like the paper derives its analyses from one measurement campaign.
// The crawl's error, if any, is latched in the artefact store and
// surfaced by Report — the landscape itself stays valid for inspection
// either way.
func (s *Study) Landscape() *measure.Landscape {
	return s.landscapeArt(context.Background())
}

// landscapeArt resolves the landscape artefact, discarding any latched
// crawl error — callers are either DAG nodes running after runNode
// already verified the artefact, or the inspection APIs (Landscape,
// CachedLandscape) whose documented contract is to hand back the
// possibly-partial campaign for post-mortem while Report/BuildDataset
// surface the error. The empty-landscape fallback only triggers when a
// WAITER is canceled before the crawl finishes; its dependent node
// then fails with the cancellation error before any result could
// latch.
func (s *Study) landscapeArt(ctx context.Context) *measure.Landscape {
	v, _ := s.resolve(ctx, artLandscape)
	if l, ok := v.(*measure.Landscape); ok && l != nil {
		return l
	}
	return &measure.Landscape{}
}

// landscapeError returns the latched landscape-crawl error, if any.
func (s *Study) landscapeError() error {
	if st := s.peek(artLandscape); st != nil {
		return st.err
	}
	return nil
}

// CachedLandscape returns the landscape campaign if one has already
// run, without triggering a crawl — e.g. to inspect per-shard visit and
// error accounting (VPResult.Stats) after a report.
func (s *Study) CachedLandscape() *measure.Landscape {
	st := s.peek(artLandscape)
	if st == nil {
		return nil
	}
	l, _ := st.value.(*measure.Landscape)
	return l
}

// germanObservations returns the verified cookiewall observations from
// the Germany VP — the reference population for Figures 1-3 and 6.
func (s *Study) germanObservations(ctx context.Context) []measure.Observation {
	v, _ := s.resolve(ctx, artGerman)
	obs, _ := v.([]measure.Observation)
	return obs
}

// figure4 returns the memoized §4.3 cookie experiment (Figure 6 reuses
// its tallies).
func (s *Study) figure4(ctx context.Context) (measure.Figure4, error) {
	v, err := s.resolve(ctx, artFig4)
	if err != nil {
		return measure.Figure4{}, err
	}
	return v.(measure.Figure4), nil
}

// wallDomains returns the verified cookiewall domains detected from
// Germany, sorted.
func (s *Study) wallDomains(ctx context.Context) []string {
	v, _ := s.resolve(ctx, artWalls)
	walls, _ := v.([]string)
	return walls
}

// regularSample returns up to n regular-banner domains (accept button
// present) from the Germany crawl.
func (s *Study) regularSample(ctx context.Context, n int) []string {
	res, _ := s.landscapeArt(ctx).Result("Germany")
	pool := res.RegularAcceptDomains
	if len(pool) > n {
		pool = pool[:n]
	}
	out := make([]string, len(pool))
	copy(out, pool)
	return out
}

// RoundSummary runs (or resumes) the landscape crawl and condenses it
// into the per-round aggregate bundle the continuous-measurement
// service (internal/trend, cmd/trendd) appends to its time-indexed
// store. Like ReportContext, a landscape failure — cancellation or a
// checkpoint journal error — fails the summary under the same stable
// wrapping: a round is either fully measured and durably journaled or
// it reports an error, never a silently partial aggregate.
func (s *Study) RoundSummary(ctx context.Context) (measure.RoundSummary, error) {
	v, err := s.resolve(ctx, artSummary)
	if lerr := s.landscapeError(); lerr != nil {
		return measure.RoundSummary{}, fmt.Errorf("cookiewalk: landscape crawl: %w", lerr)
	}
	if err != nil {
		return measure.RoundSummary{}, err
	}
	return v.(measure.RoundSummary), nil
}

// JournalDirs lists the checkpoint subdirectories (relative to
// Config.CheckpointDir) that an experiment's campaigns — its own and
// those of the artefacts it depends on — journal under, in the order
// they run. Experiments that only post-process the landscape inherit
// exactly the landscape's directories.
func JournalDirs(exp Experiment) []string {
	var labels []string
	add := func(ls ...string) {
		for _, l := range ls {
			found := false
			for _, have := range labels {
				if have == l {
					found = true
					break
				}
			}
			if !found {
				labels = append(labels, l)
			}
		}
	}
	for _, dep := range Dependencies(exp) {
		if dep == artLandscape {
			add(measure.LandscapeCampaignLabels()...)
		}
		if dep == artFig4 {
			add(measure.LabelFig4Regular, measure.LabelFig4Cookiewall)
		}
	}
	switch exp {
	case ExpFigure4:
		add(measure.LabelFig4Regular, measure.LabelFig4Cookiewall)
	case ExpFigure5:
		accept, subscribe := measure.Fig5Labels("contentpass")
		add(accept, subscribe)
	case ExpBypass:
		add(measure.LabelBypass)
	case ExpAblation:
		add(measure.LabelAblation)
	case ExpAutoReject:
		add(measure.LabelAutoReject)
	case ExpRevocation:
		add(measure.LabelRevocation)
	case ExpBotCheck:
		add(measure.LabelBotCheck)
	}
	dirs := make([]string, len(labels))
	for i, l := range labels {
		dirs[i] = campaign.PathLabel(l)
	}
	return dirs
}

// Report runs an experiment and renders its artefact as text —
// ReportContext with a background context; see there for scheduling,
// memoization and error semantics.
func (s *Study) Report(exp Experiment) (string, error) {
	return s.ReportContext(context.Background(), exp)
}
