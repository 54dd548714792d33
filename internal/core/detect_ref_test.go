package core

import (
	"slices"
	"strings"

	"cookiewalk/internal/currency"
	"cookiewalk/internal/dom"
)

// This file keeps the string pipeline that Detector replaced, as the
// reference FuzzDetect checks it against: every candidate and button
// label is a fresh strings.ToLower(n.Text()), buttons come from
// AppendQueryAll, the corpus search tokenizes with strings.FieldsFunc, and
// shadow roots are searched the BannerClick way, in a clone whose hits
// map back to the original nodes. Four things changed in the move: the
// names (a ref prefix), the byte-slice word lists, read through string
// conversions, the dom.NormalizeSpace calls around DeepText and Text,
// which were no-ops on their already normalized output and went with
// NormalizeSpace, and the clone, which dom no longer provides: refClone
// copies what the candidate search reads.

func refDetectWith(doc *dom.Node, opts Options) *Banner {
	var cands []candidate

	// 1. Main document.
	refCollectCandidates(doc, SourceMainDOM, "", &cands)

	// 2. Shadow roots — the BannerClick workaround: clone the shadow
	// content, search the clone with ordinary selectors, then map the
	// hit back to the original node for interaction.
	if !opts.SkipShadow {
		for _, sr := range shadowRoots(doc) {
			clone, backMap := refCloneWithMap(sr.Root)
			var shadowCands []candidate
			refCollectCandidates(clone, SourceShadowDOM, sr.Mode, &shadowCands)
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
		for _, fd := range frameDocs(doc) {
			refCollectCandidates(fd, SourceIFrame, "", &cands)
			if opts.SkipShadow {
				continue
			}
			// Nested shadow roots inside frame documents.
			for _, sr := range shadowRoots(fd) {
				clone, backMap := refCloneWithMap(sr.Root)
				var shadowCands []candidate
				refCollectCandidates(clone, SourceShadowDOM, sr.Mode, &shadowCands)
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
	return refBuildBanner(best)
}

// refCollectCandidates scans one tree for overlay elements whose text
// contains consent keywords.
func refCollectCandidates(root *dom.Node, source Source, mode dom.ShadowMode, out *[]candidate) {
	root.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode || n.Tag == "body" || n.Tag == "html" {
			return true
		}
		if !n.IsOverlay() || !n.IsVisible() {
			return true
		}
		text := strings.ToLower(n.Text())
		hits := refCountKeywordHits(text)
		if hits == 0 {
			return true
		}
		score := hits * 2
		buttons := n.AppendQueryAll(nil, buttonSel)
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

// refBuildBanner classifies the winning candidate and locates its buttons.
func refBuildBanner(c candidate) *Banner {
	text := c.node.DeepText()
	b := &Banner{
		Source:     c.source,
		ShadowMode: c.mode,
		Element:    c.node,
		Score:      c.score,
	}
	lower := strings.ToLower(text)

	// Buttons.
	for _, btn := range c.node.AppendQueryAll(nil, buttonSel) {
		label := strings.ToLower(btn.Text())
		if label == "" {
			continue
		}
		switch {
		case b.AcceptButton == nil && refContainsAnyWord(label, acceptWords):
			b.AcceptButton = btn
		case b.RejectButton == nil && refContainsAnyWord(label, rejectWords):
			b.RejectButton = btn
		case b.SubscribeButton == nil && refContainsAnyWord(label, subscribeWords):
			b.SubscribeButton = btn
		}
	}

	// §3 classification: subscription words OR currency combinations.
	// The prices come from currency's scanner, which FuzzFindPrices
	// checks against the regexp search it replaced.
	b.MatchedWords = refMatchCorpusWords(lower)
	prices := currency.AppendPrices(nil, []byte(text))
	b.PriceCount = len(prices)
	if m, ok := currency.CheapestMonthly(prices); ok {
		b.MonthlyEUR = m
	}
	if len(b.MatchedWords) > 0 || len(prices) > 0 {
		b.Kind = KindCookiewall
	} else {
		b.Kind = KindRegular
	}
	return b
}

func refContainsAnyWord(text string, words [][]byte) bool {
	for _, w := range words {
		if strings.Contains(text, string(w)) {
			return true
		}
	}
	return false
}

func refCountKeywordHits(text string) int {
	n := 0
	for _, w := range bannerKeywords {
		if strings.Contains(text, string(w)) {
			n++
		}
	}
	return n
}

func refMatchCorpusWords(text string) []string {
	tokens := tokenizeKeepHyphen(text)
	var found []string
	for _, w := range cookiewallCorpus {
		short := len([]rune(w)) <= 4
		for _, tok := range tokens {
			if short && tok == w {
				found = append(found, w)
				break
			}
			if !short && strings.HasPrefix(tok, w) {
				found = append(found, w)
				break
			}
		}
	}
	return found
}

func tokenizeKeepHyphen(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		if r == '-' {
			return false
		}
		return !isLetterRune(r)
	})
}

// refCloneWithMap deep-copies n's subtree and returns a map from each
// copy back to its original. It copies what the candidate search reads
// (type, tag, text, attributes and children) and leaves out shadow
// roots and frames, which the search does not enter. The copy's root
// has no shadow host, so visibility checks stop there.
func refCloneWithMap(n *dom.Node) (*dom.Node, map[*dom.Node]*dom.Node) {
	backMap := make(map[*dom.Node]*dom.Node)
	var clone func(n *dom.Node) *dom.Node
	clone = func(n *dom.Node) *dom.Node {
		c := &dom.Node{Type: n.Type, Tag: n.Tag, Data: n.Data, Attrs: slices.Clone(n.Attrs)}
		backMap[c] = n
		for ch := n.FirstChild; ch != nil; ch = ch.NextSibling {
			c.AppendChild(clone(ch))
		}
		return c
	}
	return clone(n), backMap
}

// shadowRoots collects the roots n.EachShadowRoot visits.
func shadowRoots(n *dom.Node) []*dom.ShadowRoot {
	var out []*dom.ShadowRoot
	n.EachShadowRoot(func(sr *dom.ShadowRoot) { out = append(out, sr) })
	return out
}

// frameDocs collects the documents n.EachFrameDoc visits.
func frameDocs(n *dom.Node) []*dom.Node {
	var out []*dom.Node
	n.EachFrameDoc(func(fd *dom.Node) { out = append(out, fd) })
	return out
}
