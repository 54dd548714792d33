package measure

import (
	"context"

	"cookiewalk/internal/browser"
	"cookiewalk/internal/campaign"
	"cookiewalk/internal/core"
	"cookiewalk/internal/vantage"
)

// This file implements the §5 discussion items as runnable
// experiments: detection ablations (what an unmodified tool would
// miss), Firefox-style automatic reject clicking (and how cookiewalls
// defeat it), and consent revocation by cookie deletion. Each runs as
// a labeled campaign through the engine, so they stream, cancel,
// report progress and checkpoint exactly like the landscape crawl.

// Ablation quantifies detection coverage with parts of the pipeline
// disabled.
type Ablation struct {
	// Full is the verified cookiewall count with the complete pipeline.
	Full int
	// NoShadow: without the shadow-DOM search (the paper's workaround).
	NoShadow int
	// NoFrames: without iframe traversal.
	NoFrames int
	// MainOnly: neither (roughly unmodified BannerClick).
	MainOnly int
}

// ablationCounts is one domain's verdict under the four detector
// configurations (the ablation campaign's journaled value).
type ablationCounts struct{ full, noShadow, noFrames, mainOnly bool }

// RunAblation re-analyzes the verified cookiewall sites with reduced
// detector configurations. The error is non-nil only when ctx is
// canceled mid-campaign (or on a checkpoint journal failure).
func (c *Crawler) RunAblation(ctx context.Context, vp vantage.VP, wallDomains []string) (Ablation, error) {
	var a Ablation
	_, err := runExperimentCampaign(ctx, c, LabelAblation, ablationCodec(), wallDomains,
		func(ctx context.Context, domain string) (ablationCounts, error) {
			b := c.session(ctx, vp)
			defer b.release()
			page, err := b.OpenDomain(domain)
			if err != nil {
				return ablationCounts{}, nil
			}
			wall := func(opts core.Options) bool {
				return b.det.Locate(page.Doc, opts).Kind == core.KindCookiewall
			}
			return ablationCounts{
				full:     wall(core.Options{}),
				noShadow: wall(core.Options{SkipShadow: true}),
				noFrames: wall(core.Options{SkipFrames: true}),
				mainOnly: wall(core.Options{SkipShadow: true, SkipFrames: true}),
			}, nil
		},
		func(r campaign.Result[ablationCounts]) {
			if r.Value.full {
				a.Full++
			}
			if r.Value.noShadow {
				a.NoShadow++
			}
			if r.Value.noFrames {
				a.NoFrames++
			}
			if r.Value.mainOnly {
				a.MainOnly++
			}
		})
	return a, err
}

// AutoReject is the §5 "Firefox may soon reject cookie prompts
// automatically" experiment: attempt to auto-click reject on every
// banner and report where the scheme breaks down.
type AutoReject struct {
	Visited int
	// Rejected: banners with a reject button that was clicked and
	// dismissed the banner without setting tracking cookies.
	Rejected int
	// NoRejectOption: banners without any reject button — every
	// cookiewall lands here, which is the paper's point: auto-reject
	// cannot help against accept-or-pay.
	NoRejectOption int
	// NoBanner / Failed round out the accounting.
	NoBanner int
	Failed   int
}

// rejectOutcome is one auto-reject attempt's verdict (the campaign's
// journaled value).
type rejectOutcome byte

const (
	outRejected rejectOutcome = iota
	outNoReject
	outNoBanner
	outFailed
)

// RunAutoReject visits each domain and tries the auto-reject policy.
// The error is non-nil only when ctx is canceled mid-campaign (or on a
// checkpoint journal failure).
func (c *Crawler) RunAutoReject(ctx context.Context, vp vantage.VP, domains []string) (AutoReject, error) {
	var a AutoReject
	_, err := runExperimentCampaign(ctx, c, LabelAutoReject, autoRejectCodec(), domains,
		func(ctx context.Context, domain string) (rejectOutcome, error) {
			b := c.session(ctx, vp)
			defer b.release()
			page, err := b.OpenDomain(domain)
			if err != nil {
				return outFailed, nil
			}
			det := b.locate(page.Doc)
			if det.Kind == core.KindNone {
				return outNoBanner, nil
			}
			if det.RejectButton == nil {
				return outNoReject, nil
			}
			after, err := b.Click(page, det.RejectButton)
			if err != nil {
				return outFailed, nil
			}
			if b.locate(after.Doc).Kind != core.KindNone {
				return outFailed, nil // banner survived the reject click
			}
			return outRejected, nil
		},
		func(r campaign.Result[rejectOutcome]) {
			a.Visited++
			switch r.Value {
			case outRejected:
				a.Rejected++
			case outNoReject:
				a.NoRejectOption++
			case outNoBanner:
				a.NoBanner++
			default:
				a.Failed++
			}
		})
	return a, err
}

// BotCheck quantifies the §3 limitation: "some websites identify web
// crawlers as bots ... they may behave differently". The same sample
// is visited with the OpenWPM-style mitigated user agent and with an
// honest crawler identity.
type BotCheck struct {
	Sample int
	// BannersMitigated / BannersNaive count sites showing any banner
	// under each identity.
	BannersMitigated int
	BannersNaive     int
	// BehaviourChanged counts sites whose banner appears only to the
	// mitigated identity — the sites a naive crawler under-observes.
	BehaviourChanged int
}

// botPair is one domain's banner visibility under the two crawler
// identities (the campaign's journaled value).
type botPair struct{ mitigated, naive bool }

// RunBotCheck compares site behaviour under the two crawler identities.
// The error is non-nil only when ctx is canceled mid-campaign (or on a
// checkpoint journal failure).
func (c *Crawler) RunBotCheck(ctx context.Context, vp vantage.VP, domains []string) (BotCheck, error) {
	var bc BotCheck
	_, err := runExperimentCampaign(ctx, c, LabelBotCheck, botCheckCodec(), domains,
		func(ctx context.Context, domain string) (botPair, error) {
			showsBanner := func(ua string) bool {
				b := c.session(ctx, vp)
				defer b.release()
				b.UserAgent = ua
				page, err := b.OpenDomain(domain)
				if err != nil {
					return false
				}
				return b.locate(page.Doc).Kind != core.KindNone
			}
			return botPair{
				mitigated: showsBanner(browser.DefaultUserAgent),
				naive:     showsBanner(browser.CrawlerUserAgent),
			}, nil
		},
		func(r campaign.Result[botPair]) {
			bc.Sample++
			if r.Value.mitigated {
				bc.BannersMitigated++
			}
			if r.Value.naive {
				bc.BannersNaive++
			}
			if r.Value.mitigated && !r.Value.naive {
				bc.BehaviourChanged++
			}
		})
	return bc, err
}

// Revocation is the §5 "Revoking Cookiewall Acceptance" experiment:
// after accepting, the banner only returns once cookies and local
// storage are deleted.
type Revocation struct {
	Tested int
	// GoneAfterAccept: banner absent on the post-accept reload.
	GoneAfterAccept int
	// BackAfterDeletion: banner shown again after clearing the jar.
	BackAfterDeletion int
	// PersistedWithoutDeletion: banner still absent on a later visit
	// when cookies are kept — the reason users stay tracked.
	PersistedWithoutDeletion int
}

// revOutcome is one domain's accept/revisit/delete/revisit verdict
// (the campaign's journaled value).
type revOutcome struct{ tested, gone, persisted, back bool }

// RunRevocation runs the accept -> revisit -> delete -> revisit flow.
// The flow is session-stateful per DOMAIN (one browser profile carries
// its cookies through the four steps) but independent across domains,
// so it runs as a campaign like every other experiment. A domain whose
// flow fails mid-way (open or click error) counts as untested and is
// recorded in the campaign's error ledger. The returned error is
// non-nil only when ctx is canceled mid-campaign (or on a checkpoint
// journal failure).
func (c *Crawler) RunRevocation(ctx context.Context, vp vantage.VP, domains []string) (Revocation, error) {
	var r Revocation
	_, err := runExperimentCampaign(ctx, c, LabelRevocation, revocationCodec(), domains,
		func(ctx context.Context, domain string) (revOutcome, error) {
			b := c.session(ctx, vp)
			defer b.release()
			// Open, not OpenDomain: the flow reopens the domain in the
			// same session while earlier pages are still in scope, so
			// each page keeps a URL of its own.
			page, err := b.Open("https://" + domain + "/")
			if err != nil {
				return revOutcome{}, err
			}
			det := b.locate(page.Doc)
			if det.Kind != core.KindCookiewall || det.AcceptButton == nil {
				return revOutcome{}, nil
			}
			out := revOutcome{tested: true}
			after, err := b.Click(page, det.AcceptButton)
			if err != nil {
				return revOutcome{}, err
			}
			if b.locate(after.Doc).Kind == core.KindNone {
				out.gone = true
			}
			// Later visit with cookies kept: still no banner.
			again, err := b.Open("https://" + domain + "/")
			if err != nil {
				return revOutcome{}, err
			}
			if b.locate(again.Doc).Kind == core.KindNone {
				out.persisted = true
			}
			// The §5 recipe: delete cookies (and local storage), revisit.
			b.Jar.Clear()
			fresh, err := b.Open("https://" + domain + "/")
			if err != nil {
				return revOutcome{}, err
			}
			if b.locate(fresh.Doc).Kind == core.KindCookiewall {
				out.back = true
			}
			return out, nil
		},
		func(res campaign.Result[revOutcome]) {
			o := res.Value
			if o.tested {
				r.Tested++
			}
			if o.gone {
				r.GoneAfterAccept++
			}
			if o.persisted {
				r.PersistedWithoutDeletion++
			}
			if o.back {
				r.BackAfterDeletion++
			}
		})
	return r, err
}
