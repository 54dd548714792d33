// Package core implements the paper's primary contribution: automated
// detection of cookie banners and classification of cookiewalls
// (accept-or-pay banners), the heavily-modified-BannerClick pipeline of
// §3.
//
// Detection walks the page the way the paper's tool does:
//
//  1. candidate overlay elements are collected from the main DOM, from
//     every loaded iframe document, and from every shadow root. The
//     paper's workaround for shadow roots clones the shadow children,
//     searches the clone with ordinary selectors and maps hits back to
//     the original shadow nodes (CSS cannot cross shadow boundaries);
//     the detector searches each fragment in place with the clone's
//     visibility, which stops at the fragment root;
//  2. candidates are scored by consent-keyword density, the presence of
//     buttons, and overlay markers; the best-scoring, innermost
//     candidate wins;
//  3. the winner's text is classified: a banner whose text contains a
//     subscription corpus word (abo, abonnent, abbonamento, abonne,
//     abonné, ad-free, subscribe) or a currency-amount combination
//     ("$3.99", "3.99 $", …) is a cookiewall; otherwise it is a
//     regular banner;
//  4. accept / reject / subscribe buttons are located by multilingual
//     word lists for interaction.
package core

import (
	"bytes"
	"math/bits"
	"unicode/utf8"
)

// bannerKeywords flag an overlay as a consent UI. They cover the
// languages of the study's sites; one hit is enough for candidacy,
// density raises the score.
var bannerKeywords = wordList(
	// Universal.
	"cookie", "cookies", "consent", "gdpr", "tracking",
	// German.
	"einwilligung", "zustimmen", "datenschutz", "verarbeiten", "werbung",
	// English.
	"privacy", "personalise", "personalize", "advertising",
	// Italian.
	"trattamento", "pubblicità", "consenso",
	// Swedish / Danish.
	"samtycke", "samtykke", "annonser", "annoncer", "spårning", "sporing",
	// French.
	"consentement", "publicité", "traitement",
	// Spanish / Portuguese.
	"privacidad", "privacidade", "publicidad", "publicidade",
	"rastreo", "rastreamento", "socios", "parceiros",
	// Dutch / Afrikaans.
	"toestemming", "advertenties", "advertensies", "koekies",
)

// acceptWords label consent-granting buttons (BannerClick's accept
// interaction, 99% accuracy in the original paper).
var acceptWords = wordList(
	"accept all", "accept", "agree", "allow all", "got it",
	"alle akzeptieren", "akzeptieren", "zustimmen", "einverstanden",
	"accetta", "accetto", "consenti",
	"accepter", "j'accepte", "tout accepter",
	"aceptar", "aceitar",
	"godkänn", "acceptera", "tillad",
	"accepteren", "aanvaar",
)

// rejectWords label consent-refusing buttons. Cookiewalls, by
// definition, have none.
var rejectWords = wordList(
	"reject all", "reject", "decline", "refuse", "deny",
	"ablehnen", "alle ablehnen", "nur notwendige",
	"rifiuta", "refuser", "rechazar", "recusar",
	"neka", "avvisa", "afvis", "weigeren", "weier",
)

// subscribeWords label the pay option of a cookiewall.
var subscribeWords = wordList(
	"subscribe", "subscription",
	"abo", "abonnieren", "abonnement",
	"abbonati", "abbonamento",
	"s'abonner", "abonner", "abonne",
	"suscribirse", "suscripción", "assinar",
	"prenumerera", "abonneren", "teken nou in",
	"werbefrei", "ad-free", "pur", "zahlen", "kaufen",
)

// cookiewallCorpus is the paper's exact §3 word list for classifying a
// banner as a cookiewall: "(1) words related to subscriptions (i.e.,
// abo, abonnent, abbonamento, abonne, abonné, ad-free and subscribe)".
// Currency-amount combinations are part (2), handled by package
// currency.
var cookiewallCorpus = []string{
	"abo", "abonnent", "abbonamento", "abonne", "abonné", "ad-free", "subscribe",
}

// wordList converts a word list to bytes once, so detection matches it
// against its byte buffer without a conversion per call.
func wordList(words ...string) [][]byte {
	out := make([][]byte, len(words))
	for i, w := range words {
		out[i] = []byte(w)
	}
	return out
}

// containsAnyWord reports whether lowercased text contains any of the
// phrases (substring match for multi-word phrases, which is how button
// labels are matched).
func containsAnyWord(text []byte, words [][]byte) bool {
	for _, w := range words {
		if bytes.Contains(text, w) {
			return true
		}
	}
	return false
}

// countKeywordHits counts distinct banner keywords present in text.
func countKeywordHits(text []byte) int {
	n := 0
	for _, w := range bannerKeywords {
		if bytes.Contains(text, w) {
			n++
		}
	}
	return n
}

// corpusHits returns the subscription-corpus words found in
// lower-cased text, bit i standing for cookiewallCorpus[i], using token
// matching: short words (≤4 runes, e.g. "abo") must match a whole
// token; longer words match as token prefixes so that "abonne" covers
// "abonnement" and "abbonamento" covers its inflected forms. This
// mirrors the word search the paper performs with BeautifulSoup over
// banner text.
func corpusHits(text []byte) uint {
	var found uint
	eachToken(text, func(tok []byte) {
		for i, w := range cookiewallCorpus {
			if len(tok) < len(w) || string(tok[:len(w)]) != w {
				continue
			}
			if len(tok) == len(w) || utf8.RuneCountInString(w) > 4 {
				found |= 1 << i
			}
		}
	})
	return found
}

// corpusWords returns the corpus words of a corpusHits result in corpus
// order, in a slice of exactly their length (nil for none).
func corpusWords(found uint) []string {
	if found == 0 {
		return nil
	}
	out := make([]string, 0, bits.OnesCount(found))
	for i, w := range cookiewallCorpus {
		if found&(1<<i) != 0 {
			out = append(out, w)
		}
	}
	return out
}

// eachToken calls fn for every token of text: each maximal run of
// letters (isLetterRune) and hyphens, as a view of text.
func eachToken(text []byte, fn func(tok []byte)) {
	start := -1
	for i := 0; i < len(text); {
		r, size := rune(text[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(text[i:])
		}
		switch {
		case r == '-' || isLetterRune(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			fn(text[start:i])
			start = -1
		}
		i += size
	}
	if start >= 0 {
		fn(text[start:])
	}
}

func isLetterRune(r rune) bool {
	return r == 'ß' || r == 'é' || r == 'è' || r == 'ä' || r == 'ö' ||
		r == 'ü' || r == 'å' || r == 'ã' || r == 'ç' || r == 'ñ' ||
		(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
		(r >= 'À' && r <= 'ÿ')
}
