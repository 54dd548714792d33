package core

import (
	"strings"

	"cookiewalk/internal/currency"
	"cookiewalk/internal/dom"
)

// Source says where in the page the banner was found — the §3
// embedding statistic (76 shadow DOM / 132 iframe / 72 main DOM).
type Source int

const (
	// SourceNone means no banner.
	SourceNone Source = iota
	// SourceMainDOM is a banner in the top-level document.
	SourceMainDOM
	// SourceIFrame is a banner inside an iframe document.
	SourceIFrame
	// SourceShadowDOM is a banner inside a shadow root (open or closed).
	SourceShadowDOM
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourceMainDOM:
		return "main-dom"
	case SourceIFrame:
		return "iframe"
	case SourceShadowDOM:
		return "shadow-dom"
	}
	return "none"
}

// Kind is the banner classification.
type Kind int

const (
	// KindNone: no banner detected.
	KindNone Kind = iota
	// KindRegular: a standard cookie banner.
	KindRegular
	// KindCookiewall: an accept-or-pay banner (§3 classification).
	KindCookiewall
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRegular:
		return "regular"
	case KindCookiewall:
		return "cookiewall"
	}
	return "none"
}

// Banner is a detected consent UI with everything the measurement
// pipeline needs.
type Banner struct {
	Kind   Kind
	Source Source
	// ShadowMode is set when Source is SourceShadowDOM.
	ShadowMode dom.ShadowMode
	// Element is the banner's root node in the ORIGINAL tree (main
	// document, frame document, or shadow root) — interactions use it.
	Element *dom.Node
	// Text is the normalized banner text used for classification.
	Text string
	// Score is the detection score (diagnostics).
	Score int

	// Buttons located by the multilingual word lists; nil when absent.
	AcceptButton    *dom.Node
	RejectButton    *dom.Node
	SubscribeButton *dom.Node

	// MatchedWords are the §3 subscription-corpus hits.
	MatchedWords []string
	// Prices are the currency-amount combinations found in the text.
	Prices []currency.Price
	// MonthlyEUR is the cheapest detected price normalized to EUR per
	// month (0 when no price was found).
	MonthlyEUR float64
}

// candidate is an element under consideration during detection.
type candidate struct {
	node   *dom.Node
	source Source
	mode   dom.ShadowMode
	score  int
	size   int
}

// Options disable parts of the detection pipeline for ablation
// studies: how much of the cookiewall landscape would a tool miss
// without the shadow-DOM workaround or without iframe traversal?
// (Unmodified BannerClick lacked both capabilities; the paper's §3
// extension added them.)
type Options struct {
	// SkipShadow disables the shadow-DOM clone workaround.
	SkipShadow bool
	// SkipFrames disables iframe-document traversal.
	SkipFrames bool
}

// Detect analyzes a loaded document (with frames and shadow roots
// attached by the browser) and returns the detected banner, or a
// Banner with KindNone when the page shows no consent UI.
func Detect(doc *dom.Node) *Banner { return DetectWith(doc, Options{}) }

// DetectWith is Detect with ablation options.
func DetectWith(doc *dom.Node, opts Options) *Banner {
	var cands []candidate

	// 1. Main document.
	collectCandidates(doc, SourceMainDOM, "", &cands)

	// 2. Shadow roots — the BannerClick workaround: clone the shadow
	// content, search the clone with ordinary selectors, then map the
	// hit back to the original node for interaction.
	if !opts.SkipShadow {
		for _, sr := range doc.ShadowRoots() {
			clone, backMap := sr.Root.CloneWithMap()
			var shadowCands []candidate
			collectCandidates(clone, SourceShadowDOM, sr.Mode, &shadowCands)
			for _, c := range shadowCands {
				orig := backMap[c.node]
				if orig == nil {
					continue
				}
				c.node = orig
				cands = append(cands, c)
			}
		}
	}

	// 3. iframe documents (including frames hosted in shadow roots).
	if !opts.SkipFrames {
		for _, fd := range doc.FrameDocs() {
			collectCandidates(fd, SourceIFrame, "", &cands)
			if opts.SkipShadow {
				continue
			}
			// Nested shadow roots inside frame documents.
			for _, sr := range fd.ShadowRoots() {
				clone, backMap := sr.Root.CloneWithMap()
				var shadowCands []candidate
				collectCandidates(clone, SourceShadowDOM, sr.Mode, &shadowCands)
				for _, c := range shadowCands {
					if orig := backMap[c.node]; orig != nil {
						c.node = orig
						cands = append(cands, c)
					}
				}
			}
		}
	}

	if len(cands) == 0 {
		return &Banner{Kind: KindNone}
	}

	best := cands[0]
	for _, c := range cands[1:] {
		if c.score > best.score || (c.score == best.score && c.size < best.size) {
			best = c
		}
	}
	return buildBanner(best)
}

// buttonSel finds interactive elements inside a banner.
var buttonSel = dom.MustCompileSelector("button, a, input[type=button], input[type=submit]")

// collectCandidates scans one tree for overlay elements whose text
// contains consent keywords.
func collectCandidates(root *dom.Node, source Source, mode dom.ShadowMode, out *[]candidate) {
	root.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode || n.Tag == "body" || n.Tag == "html" {
			return true
		}
		if !n.IsOverlay() || !n.IsVisible() {
			return true
		}
		text := strings.ToLower(n.Text())
		hits := countKeywordHits(text)
		if hits == 0 {
			return true
		}
		score := hits * 2
		buttons := n.QueryAll(buttonSel)
		if len(buttons) > 0 {
			score += 3
		}
		if _, ok := n.Attr("role"); ok {
			score++
		}
		size := 0
		n.Walk(func(*dom.Node) bool { size++; return true })
		*out = append(*out, candidate{node: n, source: source, mode: mode, score: score, size: size})
		return true
	})
}

// buildBanner classifies the winning candidate and locates its buttons.
func buildBanner(c candidate) *Banner {
	text := dom.NormalizeSpace(c.node.DeepText())
	b := &Banner{
		Source:     c.source,
		ShadowMode: c.mode,
		Element:    c.node,
		Text:       text,
		Score:      c.score,
	}
	lower := strings.ToLower(text)

	// Buttons.
	for _, btn := range c.node.QueryAll(buttonSel) {
		label := strings.ToLower(dom.NormalizeSpace(btn.Text()))
		if label == "" {
			continue
		}
		switch {
		case b.AcceptButton == nil && containsAnyWord(label, acceptWords):
			b.AcceptButton = btn
		case b.RejectButton == nil && containsAnyWord(label, rejectWords):
			b.RejectButton = btn
		case b.SubscribeButton == nil && containsAnyWord(label, subscribeWords):
			b.SubscribeButton = btn
		}
	}

	// §3 classification: subscription words OR currency combinations.
	b.MatchedWords = matchCorpusWords(lower)
	b.Prices = currency.FindPrices(text)
	if m, ok := currency.CheapestMonthly(b.Prices); ok {
		b.MonthlyEUR = m
	}
	if len(b.MatchedWords) > 0 || len(b.Prices) > 0 {
		b.Kind = KindCookiewall
	} else {
		b.Kind = KindRegular
	}
	return b
}
