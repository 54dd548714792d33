package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"cookiewalk/internal/dom"
	"cookiewalk/internal/webfarm"
)

// FuzzDetect checks the buffer-based Detector against the string
// pipeline it replaced (detect_ref_test.go) under every ablation
// option. One Detector serves every input, so a buffer or candidate
// left over from an earlier call would show up as a mismatch. Every
// iframe of the page loads a fresh parse of the input as its document.
func FuzzDetect(f *testing.F) {
	texts := webfarm.BannerTexts()
	langs := make([]string, 0, len(texts))
	for lang := range texts {
		langs = append(langs, lang)
	}
	sort.Strings(langs)
	for _, lang := range langs {
		s := texts[lang]
		consent, wall, accept, reject, subscribe := s[0], s[1], s[2], s[3], s[4]
		f.Add(fuzzBanner(consent, accept, reject))
		f.Add(fuzzBanner(wall, accept, subscribe))
		f.Add(`<div id="host"><template shadowrootmode="closed">` + fuzzBanner(wall, accept, subscribe) + `</template></div>`)
		f.Add(`<iframe style="position:fixed"></iframe>` + fuzzBanner(consent, accept, reject))
	}
	for _, s := range []string{
		// NBSP inside prices and labels.
		fuzzBanner("Werbefrei im Abo für 2,99&nbsp;€ pro Monat. Cookies?", "Alle&nbsp;akzeptieren", "Abo abschließen"),
		// Invalid UTF-8.
		fuzzBanner("Cookies \xff\xfe ab\xc3o 3.99 $ subscribe\xe2", "Accept\xff", "\xc3Reject"),
		// Upper-case non-ASCII, including runes whose lower case has
		// another UTF-8 length (İ, ẞ shrink; Ⱥ grows).
		fuzzBanner("COOKIES: ABONNÉ, ABONNEMENT İ ẞ Ⱥ PUBLICITÉ", "ACCEPTER", "S'ABONNER"),
		fuzzBanner("ÉCRAN İSTANBUL ẞTRASSE CONSENTEMENT AD-FREE", "TOUT ACCEPTER", "REFUSER"),
		// Nested shadow roots and iframes, in the main document and in
		// shadow trees.
		`<div class="overlay" style="position:fixed"><p>cookie consent</p>` +
			`<template shadowrootmode="open"><div role="dialog"><p>Abo 1,99 € Cookies</p><button>Accept</button>` +
			`<template shadowrootmode="closed"><div class="modal"><p>Datenschutz ad-free</p><a>Ablehnen</a>` +
			`<iframe></iframe></div></template></div></template></div><iframe></iframe>`,
		`<div style="display:none"><template shadowrootmode="open"><div class="banner" role="dialog">` +
			`<p>cookies tracking</p><input type="submit" value="x">Zustimmen</div></template></div>`,
		"",
	} {
		f.Add(s)
	}
	var d Detector
	f.Fuzz(func(t *testing.T, input string) {
		doc := fuzzDoc(input)
		for _, opts := range []Options{{}, {SkipShadow: true}, {SkipFrames: true}, {SkipShadow: true, SkipFrames: true}} {
			got, want := d.DetectWith(doc, opts), refDetectWith(doc, opts)
			if diff := bannerDiff(got, *want); diff != "" {
				t.Fatalf("%+v: %s\ninput %q", opts, diff, input)
			}
		}
	})
}

// fuzzBanner is a farm-shaped consent overlay with two buttons.
func fuzzBanner(text, b1, b2 string) string {
	return fmt.Sprintf(`<div class="consent-layer" role="dialog" style="position:fixed;bottom:0">`+
		`<p>%s</p><button>%s</button><a href="/x">%s</a></div>`, text, b1, b2)
}

// fuzzDoc parses input and gives every iframe, in the document and in
// its shadow roots, a fresh parse of input as its loaded document.
func fuzzDoc(input string) *dom.Node {
	doc := dom.Parse(input)
	load := func(root *dom.Node) {
		root.Walk(func(n *dom.Node) bool {
			if n.Tag == "iframe" {
				n.FrameDoc = dom.Parse(input)
			}
			return true
		})
	}
	load(doc)
	for _, sr := range doc.ShadowRoots() {
		load(sr.Root)
	}
	return doc
}

// bannerDiff names the first field in which two detections differ, or
// returns "" when they agree.
func bannerDiff(got, want Banner) string {
	switch {
	case got.Kind != want.Kind:
		return fmt.Sprintf("Kind %v, want %v", got.Kind, want.Kind)
	case got.Source != want.Source:
		return fmt.Sprintf("Source %v, want %v", got.Source, want.Source)
	case got.ShadowMode != want.ShadowMode:
		return fmt.Sprintf("ShadowMode %q, want %q", got.ShadowMode, want.ShadowMode)
	case got.Element != want.Element:
		return "Element differs"
	case got.Text != want.Text:
		return fmt.Sprintf("Text %q, want %q", got.Text, want.Text)
	case got.Score != want.Score:
		return fmt.Sprintf("Score %d, want %d", got.Score, want.Score)
	case got.AcceptButton != want.AcceptButton:
		return "AcceptButton differs"
	case got.RejectButton != want.RejectButton:
		return "RejectButton differs"
	case got.SubscribeButton != want.SubscribeButton:
		return "SubscribeButton differs"
	case !slices.Equal(got.MatchedWords, want.MatchedWords):
		return fmt.Sprintf("MatchedWords %q, want %q", got.MatchedWords, want.MatchedWords)
	case len(got.MatchedWords) != cap(got.MatchedWords):
		return fmt.Sprintf("MatchedWords has length %d but capacity %d", len(got.MatchedWords), cap(got.MatchedWords))
	case !reflect.DeepEqual(got.Prices, want.Prices):
		return fmt.Sprintf("Prices %v, want %v", got.Prices, want.Prices)
	case got.MonthlyEUR != want.MonthlyEUR:
		return fmt.Sprintf("MonthlyEUR %v, want %v", got.MonthlyEUR, want.MonthlyEUR)
	}
	return ""
}
