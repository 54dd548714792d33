package core

import (
	"unicode"
	"unicode/utf8"

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

	// MatchedWords are the §3 subscription-corpus hits, in corpus
	// order, in a slice of exactly their length that nothing else
	// references.
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

// Detector is the banner detector with its scratch space kept warm.
// Candidate texts and button labels are extracted, lower-cased and
// matched in one byte buffer, and candidates are gathered in one
// slice; the next call reuses both. What a call allocates is what its
// Banner keeps (Text, MatchedWords, Prices), the shadow-root clones of
// the BannerClick workaround and the lists of shadow roots and frames
// it walks. A measurement worker keeps one Detector for its lifetime.
// The zero value is ready to use; a Detector is not safe for
// concurrent use.
type Detector struct {
	buf   []byte
	cands []candidate
}

// Detect analyzes a loaded document (with frames and shadow roots
// attached by the browser) and returns the detected banner, or a
// Banner with KindNone when the page shows no consent UI. It is the
// one-shot form of Detector.DetectWith, with a fresh Detector.
func Detect(doc *dom.Node) Banner {
	var d Detector
	return d.DetectWith(doc, Options{})
}

// DetectWith is Detect with ablation options, on the detector's warm
// buffers. The returned Banner shares no memory with the detector.
func (d *Detector) DetectWith(doc *dom.Node, opts Options) Banner {
	d.cands = d.cands[:0]

	// 1. Main document.
	d.collect(doc, SourceMainDOM, "")

	// 2. Shadow roots.
	if !opts.SkipShadow {
		for _, sr := range doc.ShadowRoots() {
			d.collectShadow(sr)
		}
	}

	// 3. iframe documents (including frames hosted in shadow roots).
	if !opts.SkipFrames {
		for _, fd := range doc.FrameDocs() {
			d.collect(fd, SourceIFrame, "")
			if opts.SkipShadow {
				continue
			}
			// Nested shadow roots inside frame documents.
			for _, sr := range fd.ShadowRoots() {
				d.collectShadow(sr)
			}
		}
	}

	if len(d.cands) == 0 {
		return Banner{Kind: KindNone}
	}

	best := d.cands[0]
	for _, c := range d.cands[1:] {
		if c.score > best.score || (c.score == best.score && c.size < best.size) {
			best = c
		}
	}
	return d.build(best)
}

// collectShadow is the BannerClick workaround: clone the shadow
// content, search the clone with ordinary selectors, then map each hit
// back to the original node for interaction.
func (d *Detector) collectShadow(sr *dom.ShadowRoot) {
	clone, backMap := sr.Root.CloneWithMap()
	start := len(d.cands)
	d.collect(clone, SourceShadowDOM, sr.Mode)
	kept := d.cands[:start]
	for _, c := range d.cands[start:] {
		if orig := backMap[c.node]; orig != nil {
			c.node = orig
			kept = append(kept, c)
		}
	}
	d.cands = kept
}

// buttonSel finds interactive elements inside a banner.
var buttonSel = dom.MustCompileSelector("button, a, input[type=button], input[type=submit]")

// collect scans one tree for overlay elements whose text contains
// consent keywords.
func (d *Detector) collect(root *dom.Node, source Source, mode dom.ShadowMode) {
	root.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode || n.Tag == "body" || n.Tag == "html" {
			return true
		}
		if !n.IsOverlay() || !n.IsVisible() {
			return true
		}
		d.buf = n.AppendText(d.buf[:0])
		hits := countKeywordHits(d.lower())
		if hits == 0 {
			return true
		}
		score := hits * 2
		if n.Query(buttonSel) != nil {
			score += 3
		}
		if _, ok := n.Attr("role"); ok {
			score++
		}
		size := 0
		n.Walk(func(*dom.Node) bool { size++; return true })
		d.cands = append(d.cands, candidate{node: n, source: source, mode: mode, score: score, size: size})
		return true
	})
}

// lower appends the lower-case form of the text in the buffer to the
// buffer and returns it: a view that the detector's next use of the
// buffer overwrites.
func (d *Detector) lower() []byte {
	n := len(d.buf)
	d.buf = appendLower(d.buf, d.buf[:n])
	return d.buf[n:]
}

// appendLower appends the lower-case form of src to dst, byte for byte
// what strings.ToLower returns: every rune maps through
// unicode.ToLower, and invalid UTF-8 becomes U+FFFD. src may be a
// prefix of dst's buffer: appending never writes below len(dst).
func appendLower(dst, src []byte) []byte {
	for i := 0; i < len(src); {
		if c := src[i]; c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, size := utf8.DecodeRune(src[i:])
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
		i += size
	}
	return dst
}

// build classifies the winning candidate and locates its buttons.
func (d *Detector) build(c candidate) Banner {
	b := Banner{
		Source:     c.source,
		ShadowMode: c.mode,
		Element:    c.node,
		Text:       c.node.DeepText(),
		Score:      c.score,
	}

	// §3 classification: subscription words OR currency combinations.
	d.buf = append(d.buf[:0], b.Text...)
	b.MatchedWords = matchCorpusWords(d.lower())
	b.Prices = currency.FindPrices(b.Text)
	if m, ok := currency.CheapestMonthly(b.Prices); ok {
		b.MonthlyEUR = m
	}
	if len(b.MatchedWords) > 0 || len(b.Prices) > 0 {
		b.Kind = KindCookiewall
	} else {
		b.Kind = KindRegular
	}

	// Buttons, in document order: each label is extracted and
	// lower-cased in the buffer.
	c.node.Walk(func(btn *dom.Node) bool {
		if btn == c.node || !btn.Matches(buttonSel) {
			return true
		}
		d.buf = btn.AppendText(d.buf[:0])
		label := d.lower()
		if len(label) == 0 {
			return true
		}
		switch {
		case b.AcceptButton == nil && containsAnyWord(label, acceptWords):
			b.AcceptButton = btn
		case b.RejectButton == nil && containsAnyWord(label, rejectWords):
			b.RejectButton = btn
		case b.SubscribeButton == nil && containsAnyWord(label, subscribeWords):
			b.SubscribeButton = btn
		}
		return true
	})
	return b
}
