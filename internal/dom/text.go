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

// AppendText appends the user-visible text of n's subtree to dst and
// returns the extended buffer. The text is whitespace-normalized: runs
// of Unicode space (including NBSP from &nbsp;) collapse to single
// ASCII spaces, block boundaries insert spaces, and the ends are
// trimmed. It does not descend into shadow roots or iframes (see
// DeepText). Extraction and normalization are one streaming pass, so a
// caller that keeps dst across calls, as the banner detector does,
// extracts text without allocating.
func (n *Node) AppendText(dst []byte) []byte {
	t := textNormalizer{emit: func(s string) { dst = append(dst, s...) }}
	appendText(&t, n)
	return dst
}

// Text returns n's text as AppendText extracts it. A first walk sizes
// the builder, so the text is written into a single allocation.
func (n *Node) Text() string {
	var b strings.Builder
	b.Grow(textBound(n))
	t := textNormalizer{emit: func(s string) { b.WriteString(s) }}
	appendText(&t, n)
	return b.String()
}

// DeepText returns the text of n's subtree including all shadow roots
// and loaded iframe documents beneath it: what a screenshot shows, and
// what manual annotation in the paper would read. It is n's Text, then
// every shadow root's, then every frame document's, joined by single
// spaces (empty parts add nothing), streamed through the same
// normalizer as Text and written into a single allocation.
func (n *Node) DeepText() string {
	size := 0
	textParts(n, func(p *Node) { size += textBound(p) })
	var b strings.Builder
	b.Grow(size)
	t := textNormalizer{emit: func(s string) { b.WriteString(s) }}
	appendDeepText(&t, n)
	return b.String()
}

// AppendDeepText appends n's DeepText to dst and returns the extended
// buffer; a caller that keeps dst across calls, as the banner detector
// does, extracts it without allocating.
func (n *Node) AppendDeepText(dst []byte) []byte {
	t := textNormalizer{emit: func(s string) { dst = append(dst, s...) }}
	appendDeepText(&t, n)
	return dst
}

func appendDeepText(t *textNormalizer, n *Node) {
	textParts(n, func(p *Node) {
		appendText(t, p)
		t.writeSpace()
	})
}

// textParts calls fn for every tree DeepText reads, in order: n itself,
// each shadow root beneath it, each loaded frame document beneath it.
func textParts(n *Node, fn func(*Node)) {
	fn(n)
	n.EachShadowRoot(func(sr *ShadowRoot) { fn(sr.Root) })
	n.EachFrameDoc(fn)
}

// textBound bounds the length of n's Text from above: every text node
// appendText visits contributes at most its own bytes plus the one
// separating space that may precede it (only invalid UTF-8, which the
// normalizer widens to U+FFFD, can exceed it).
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

// textNormalizer is the one whitespace normalizer behind every text
// extraction: runs of Unicode whitespace collapse to single ASCII
// spaces, leading and trailing whitespace never gets written, and
// invalid UTF-8 becomes U+FFFD. It hands its output to emit one run at
// a time, so AppendText and Text differ only in where the runs land.
type textNormalizer struct {
	emit  func(string)
	space bool // pending whitespace run
	wrote bool // a non-space rune has been written
}

func (t *textNormalizer) writeString(s string) {
	for i := 0; i < len(s); {
		if run := wordLen(s[i:]); run > 0 {
			t.put(s[i : i+run])
			i += run
			continue
		}
		// s[i] starts whitespace or is a byte of invalid UTF-8.
		r, size := utf8.DecodeRuneInString(s[i:])
		i += size
		if unicode.IsSpace(r) {
			t.space = true
		} else {
			t.put("\uFFFD")
		}
	}
}

// wordLen returns the length of the longest prefix of s that holds no
// whitespace and no invalid UTF-8: the bytes the normalizer copies
// through unchanged.
func wordLen(s string) int {
	i := 0
	for i < len(s) {
		// The unicode space set restricted to ASCII is exactly
		// \t\n\v\f\r and ' '.
		if c := s[i]; c < utf8.RuneSelf {
			if c == ' ' || (c >= '\t' && c <= '\r') {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) || (r == utf8.RuneError && size == 1) {
			break
		}
		i += size
	}
	return i
}

// put writes one run of non-space text, preceded by a single space when
// whitespace separates it from earlier output.
func (t *textNormalizer) put(run string) {
	if t.space && t.wrote {
		t.emit(" ")
	}
	t.space = false
	t.wrote = true
	t.emit(run)
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
func (n *Node) IsVisible() bool { return n.visible(true) }

// IsVisibleInTree is IsVisible bounded at the root of n's own tree:
// inside a shadow fragment it does not climb to the host. It is the
// visibility BannerClick's shadow-DOM workaround sees, since a copy of
// the fragment has no host.
func (n *Node) IsVisibleInTree() bool { return n.visible(false) }

// visible checks n and its ancestors, climbing out of shadow fragments
// to their hosts when crossShadow is set.
func (n *Node) visible(crossShadow bool) bool {
	for cur := n; cur != nil; {
		if !cur.IsDisplayed() {
			return false
		}
		if cur.Parent != nil {
			cur = cur.Parent
			continue
		}
		// Climb out of a shadow fragment to its host.
		if crossShadow && cur.Type == DocumentNode {
			if host := hostOf(cur); host != nil {
				cur = host
				continue
			}
		}
		break
	}
	return true
}

// hostOf returns the shadow host of a shadow fragment root, or nil for
// any other node. attachShadow sets the fragment's shadowHost back
// pointer, so the lookup is O(1).
func hostOf(fragment *Node) *Node { return fragment.shadowHost }

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
