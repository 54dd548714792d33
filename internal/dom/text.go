package dom

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// skipTextTag reports elements whose text content is never
// user-visible. A string switch compiles to a length-bucketed
// comparison tree — measurably cheaper than a map probe on the
// per-node text path.
func skipTextTag(tag string) bool {
	switch tag {
	case "script", "style", "template", "noscript", "head", "title":
		return true
	}
	return false
}

// blockTag reports elements that separate words when extracting text,
// mirroring layout.
func blockTag(tag string) bool {
	switch tag {
	case "address", "article", "aside", "blockquote", "br", "button",
		"div", "dl", "dt", "dd", "fieldset", "footer", "form",
		"h1", "h2", "h3", "h4", "h5", "h6", "header", "hr", "li",
		"main", "nav", "ol", "option", "p", "pre", "section", "select",
		"table", "td", "th", "tr", "ul":
		return true
	}
	return false
}

// Text returns the user-visible text of n's subtree with whitespace
// normalized: runs of Unicode space (including NBSP from &nbsp;)
// collapse to single ASCII spaces and block boundaries insert spaces.
// It does not descend into shadow roots or iframes — callers that need
// pierced text (the cookiewall detector) collect those explicitly.
//
// Extraction and normalization happen in one streaming pass — the text
// never exists un-normalized, halving the string work of the old
// extract-then-NormalizeSpace pipeline while producing identical
// bytes (the normalizer is fed the same chunk sequence the old code
// concatenated). A first walk sizes the builder, so the text is
// written into a single allocation instead of a doubling series.
func (n *Node) Text() string {
	var t textNormalizer
	t.b.Grow(textBound(n))
	appendText(&t, n)
	return t.b.String()
}

// textBound bounds the length of n's Text from above: every text node
// appendText visits contributes at most its own bytes plus the one
// separating space that may precede it (only invalid UTF-8, which
// WriteRune widens to U+FFFD, can exceed it).
func textBound(n *Node) int {
	switch n.Type {
	case TextNode:
		return len(n.Data) + 1
	case CommentNode, DoctypeNode:
		return 0
	case ElementNode:
		if skipTextTag(n.Tag) {
			return 0
		}
	}
	size := 0
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		size += textBound(c)
	}
	return size
}

// textNormalizer streams chunks through the NormalizeSpace state
// machine: runs of Unicode whitespace collapse to single ASCII spaces,
// leading and trailing whitespace never gets written.
type textNormalizer struct {
	b     strings.Builder
	space bool // pending whitespace run
	wrote bool // a non-space rune has been written
}

func (t *textNormalizer) writeString(s string) {
	for i := 0; i < len(s); {
		// ASCII bytes skip rune decoding and WriteRune; the unicode
		// space set restricted to ASCII is exactly \t\n\v\f\r and ' '.
		if c := s[i]; c < utf8.RuneSelf {
			i++
			if c == ' ' || (c >= '\t' && c <= '\r') {
				t.space = true
				continue
			}
			if t.space && t.wrote {
				t.b.WriteByte(' ')
			}
			t.space = false
			t.wrote = true
			t.b.WriteByte(c)
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		i += size
		if unicode.IsSpace(r) {
			t.space = true
			continue
		}
		if t.space && t.wrote {
			t.b.WriteByte(' ')
		}
		t.space = false
		t.wrote = true
		t.b.WriteRune(r)
	}
}

func (t *textNormalizer) writeSpace() { t.space = true }

func appendText(t *textNormalizer, n *Node) {
	switch n.Type {
	case TextNode:
		t.writeString(n.Data)
		return
	case CommentNode, DoctypeNode:
		return
	case ElementNode:
		if skipTextTag(n.Tag) {
			return
		}
		if blockTag(n.Tag) {
			t.writeSpace()
		}
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		appendText(t, c)
	}
	if n.Type == ElementNode && blockTag(n.Tag) {
		t.writeSpace()
	}
}

// DeepText returns the text of n's subtree including all shadow roots
// and loaded iframe documents beneath it. This is what a screenshot
// shows, and what manual annotation in the paper would read.
func (n *Node) DeepText() string {
	var parts []string
	if t := n.Text(); t != "" {
		parts = append(parts, t)
	}
	for _, sr := range n.ShadowRoots() {
		if t := sr.Root.Text(); t != "" {
			parts = append(parts, t)
		}
	}
	for _, fd := range n.FrameDocs() {
		if t := fd.Text(); t != "" {
			parts = append(parts, t)
		}
	}
	return NormalizeSpace(strings.Join(parts, " "))
}

// NormalizeSpace folds every run of Unicode whitespace (including
// non-breaking spaces) into a single ASCII space and trims the ends.
// Price matching depends on this: "3,99&nbsp;€" must compare equal to
// "3,99 €".
func NormalizeSpace(s string) string {
	var t textNormalizer
	t.b.Grow(len(s))
	t.writeString(s)
	return t.b.String()
}

// --- inline style and visibility heuristics ------------------------------

// styleVal returns the value of one inline style property, "" when
// absent. It scans the style attribute in place without building a
// property map, because visibility checks run per element on the
// detection hot path. Keys match case-insensitively, declarations
// without a colon or a value are skipped, and, as in CSS, the LAST
// well-formed declaration wins. prop must be lower-case.
func (n *Node) styleVal(prop string) string {
	style, ok := n.Attr("style")
	if !ok || style == "" {
		return ""
	}
	val := ""
	for len(style) > 0 {
		decl := style
		if semi := strings.IndexByte(style, ';'); semi >= 0 {
			decl, style = style[:semi], style[semi+1:]
		} else {
			style = ""
		}
		colon := strings.IndexByte(decl, ':')
		if colon < 0 {
			continue
		}
		key := strings.TrimSpace(decl[:colon])
		if !strings.EqualFold(key, prop) {
			continue
		}
		if v := strings.TrimSpace(decl[colon+1:]); v != "" {
			val = v
		}
	}
	return val
}

// IsDisplayed reports whether the node itself is displayed (no
// display:none / visibility:hidden inline style, no hidden attribute).
func (n *Node) IsDisplayed() bool {
	if n.Type != ElementNode {
		return true
	}
	if _, hidden := n.Attr("hidden"); hidden {
		return false
	}
	if n.styleVal("display") == "none" {
		return false
	}
	if v := n.styleVal("visibility"); v == "hidden" || v == "collapse" {
		return false
	}
	if n.styleVal("opacity") == "0" {
		return false
	}
	return true
}

// IsVisible reports whether n and all its light-DOM ancestors are
// displayed. Shadow hosts count as ancestors for nodes inside shadow
// roots.
func (n *Node) IsVisible() bool {
	for cur := n; cur != nil; {
		if !cur.IsDisplayed() {
			return false
		}
		if cur.Parent != nil {
			cur = cur.Parent
			continue
		}
		// Climb out of a shadow fragment to its host.
		if cur.Type == DocumentNode {
			if host := hostOf(cur); host != nil {
				cur = host
				continue
			}
		}
		break
	}
	return true
}

// hostOf returns the shadow host for a shadow fragment root, if this
// document fragment is a shadow root.
func hostOf(fragment *Node) *Node {
	// The fragment keeps no back pointer; hosts are discovered by the
	// ShadowRoot struct. We thread it via a hidden attribute-free map
	// would be overkill: instead, shadow fragments are created only by
	// AttachShadow, which we can detect by scanning the host chain.
	// To keep this O(1), AttachShadow tags the fragment.
	if fragment.shadowHost != nil {
		return fragment.shadowHost
	}
	return nil
}

// IsOverlay reports whether the element looks like a page overlay:
// position fixed/sticky/absolute with a z-index, or a dialog role, or
// class/id hints commonly used by consent layers. This mirrors the
// visual "covers the page" heuristic BannerClick applies.
func (n *Node) IsOverlay() bool {
	if n.Type != ElementNode {
		return false
	}
	pos := n.styleVal("position")
	if pos == "fixed" || pos == "sticky" {
		return true
	}
	if pos == "absolute" && n.styleVal("z-index") != "" {
		return true
	}
	if role, _ := n.Attr("role"); role == "dialog" || role == "alertdialog" {
		return true
	}
	if _, ok := n.Attr("aria-modal"); ok {
		return true
	}
	return hintsOverlay(n.AttrOr("class", "")) || hintsOverlay(n.AttrOr("id", ""))
}

// overlayHints are the class/id substrings consent layers use. None
// contains a space, so checking class and id separately is equivalent
// to the old scan of their space-joined concatenation.
var overlayHints = [...]string{
	"overlay", "modal", "popup", "consent-layer", "cmp-container", "banner",
}

func hintsOverlay(attr string) bool {
	if attr == "" {
		return false
	}
	// ToLower returns the input unchanged (no copy) for the usual
	// already-lower-case markup.
	lower := strings.ToLower(attr)
	for _, kw := range overlayHints {
		if strings.Contains(lower, kw) {
			return true
		}
	}
	return false
}
