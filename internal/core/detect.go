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
// pipeline needs. Detector.Locate fills the verdict, the element and
// the buttons; Detector.Describe adds the classification evidence.
type Banner struct {
	Kind   Kind
	Source Source
	// ShadowMode is set when Source is SourceShadowDOM.
	ShadowMode dom.ShadowMode
	// Element is the banner's root node in the page's own tree (main
	// document, frame document, or shadow root): interactions use it,
	// and its DeepText is the banner text that was classified.
	Element *dom.Node
	// Score is the detection score (diagnostics).
	Score int

	// Buttons located by the multilingual word lists; nil when absent.
	AcceptButton    *dom.Node
	RejectButton    *dom.Node
	SubscribeButton *dom.Node

	// MatchedWords are the §3 subscription-corpus hits, in corpus
	// order, in a slice of exactly their length that nothing else
	// references. Set by Describe.
	MatchedWords []string
	// PriceCount is the number of currency-amount combinations in the
	// banner text. Set by Describe.
	PriceCount int
	// MonthlyEUR is the cheapest detected price normalized to EUR per
	// month (0 when no price was found). Set by Describe.
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
	// SkipShadow disables the search of shadow roots.
	SkipShadow bool
	// SkipFrames disables iframe-document traversal.
	SkipFrames bool
}

// Detector is the banner detector with its scratch space kept warm.
// Detection is two steps, so each caller pays only for what it reads:
// Locate finds the banner, its kind and its buttons; Describe adds the
// corpus words and prices that only the landscape's §4.2 analysis
// reads. Texts are extracted, lower-cased and matched in one byte
// buffer, candidates gathered in one slice and prices in another; the
// next call reuses all three. Locate allocates nothing, and Describe
// only the MatchedWords it returns. A measurement worker keeps one
// Detector for its lifetime. The zero value is ready to use; a
// Detector is not safe for concurrent use.
type Detector struct {
	buf    []byte
	cands  []candidate
	prices []currency.Price
}

// Detect analyzes a loaded document (with frames and shadow roots
// attached by the browser) and returns the detected and described
// banner, or a Banner with KindNone when the page shows no consent UI.
// It is Locate and Describe on a fresh Detector.
func Detect(doc *dom.Node) Banner {
	var d Detector
	b := d.Locate(doc, Options{})
	d.Describe(&b)
	return b
}

// Locate finds the banner on a loaded document under the ablation
// options: the best candidate, its Kind, Source and buttons. A banner
// is a cookiewall when its text holds a §3 corpus word or, failing
// that, a price. The returned Banner shares no memory with the
// detector.
func (d *Detector) Locate(doc *dom.Node, opts Options) Banner {
	d.cands = d.cands[:0]

	// 1. Main document.
	d.collect(doc, SourceMainDOM, "")

	// 2. Shadow roots, searched in place.
	if !opts.SkipShadow {
		doc.EachShadowRoot(d.collectShadow)
	}

	// 3. iframe documents (including frames hosted in shadow roots),
	// each with the shadow roots nested inside it.
	if !opts.SkipFrames {
		doc.EachFrameDoc(func(fd *dom.Node) {
			d.collect(fd, SourceIFrame, "")
			if !opts.SkipShadow {
				fd.EachShadowRoot(d.collectShadow)
			}
		})
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
	return d.locate(best)
}

// collectShadow searches one shadow fragment in place. The BannerClick
// workaround searched a copy of the fragment with ordinary selectors
// and mapped hits back; the copy's root had no host, so visibility is
// checked up to the fragment root only, and the candidates are the
// ones the copy yielded.
func (d *Detector) collectShadow(sr *dom.ShadowRoot) {
	d.collect(sr.Root, SourceShadowDOM, sr.Mode)
}

// buttonSel finds interactive elements inside a banner.
var buttonSel = dom.MustCompileSelector("button, a, input[type=button], input[type=submit]")

// collect scans one tree for overlay elements whose text contains
// consent keywords.
func (d *Detector) collect(root *dom.Node, source Source, mode dom.ShadowMode) {
	visible := (*dom.Node).IsVisible
	if source == SourceShadowDOM {
		visible = (*dom.Node).IsVisibleInTree
	}
	root.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode || n.Tag == "body" || n.Tag == "html" {
			return true
		}
		if !n.IsOverlay() || !visible(n) {
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

// locate classifies the winning candidate and locates its buttons.
func (d *Detector) locate(c candidate) Banner {
	b := Banner{
		Kind:       KindRegular,
		Source:     c.source,
		ShadowMode: c.mode,
		Element:    c.node,
		Score:      c.score,
	}

	// §3 classification: subscription words OR currency combinations,
	// in the banner's deep text.
	d.buf = c.node.AppendDeepText(d.buf[:0])
	n := len(d.buf)
	if corpusHits(d.lower()) != 0 || currency.HasPrice(d.buf[:n]) {
		b.Kind = KindCookiewall
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

// Describe adds the classification evidence to a located banner: the
// §3 corpus words, the number of prices and the cheapest monthly
// price, read from the banner's deep text. A KindNone banner has none.
func (d *Detector) Describe(b *Banner) {
	if b.Element == nil {
		return
	}
	d.buf = b.Element.AppendDeepText(d.buf[:0])
	n := len(d.buf)
	b.MatchedWords = corpusWords(corpusHits(d.lower()))
	d.prices = currency.AppendPrices(d.prices[:0], d.buf[:n])
	b.PriceCount = len(d.prices)
	b.MonthlyEUR, _ = currency.CheapestMonthly(d.prices)
}
