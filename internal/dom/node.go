// Package dom implements the document object model used by the emulated
// browser and the banner detector: an element tree parsed from HTML
// (via package htmlx), a CSS selector subset, declarative shadow DOM,
// iframe content documents, inline-style visibility heuristics, and
// text extraction.
//
// Two boundaries are modelled faithfully because the paper's detection
// technique depends on them:
//
//   - CSS selectors do NOT cross shadow roots. BannerClick's shadow-DOM
//     workaround (clone shadow children into the light DOM, search the
//     clone, then map hits back to the originals) exists precisely
//     because XPath/CSS cannot see into shadow roots. The detector
//     searches each fragment in place instead, with the visibility the
//     clone had (Node.IsVisibleInTree); see core.Detector.Locate.
//   - iframes are separate documents (Node.FrameDoc), loaded by the
//     browser, and must be searched explicitly.
package dom

import (
	"strings"

	"cookiewalk/internal/htmlx"
)

// NodeType discriminates tree nodes.
type NodeType int

const (
	// DocumentNode is the root of a document or shadow-root fragment.
	DocumentNode NodeType = iota
	// ElementNode is an element such as <div>.
	ElementNode
	// TextNode is character data.
	TextNode
	// CommentNode is <!-- ... -->.
	CommentNode
	// DoctypeNode is <!DOCTYPE ...>.
	DoctypeNode
)

// ShadowMode is the mode of an attached shadow root.
type ShadowMode string

const (
	// ShadowOpen roots are reachable from page script.
	ShadowOpen ShadowMode = "open"
	// ShadowClosed roots are hidden from page script; a real crawler
	// needs DevTools piercing to reach them.
	ShadowClosed ShadowMode = "closed"
)

// ShadowRoot is a shadow tree attached to a host element.
type ShadowRoot struct {
	Mode ShadowMode
	Host *Node
	// Root is a DocumentNode fragment holding the shadow children.
	Root *Node
}

// Node is a single DOM node. The zero value is not useful; create nodes
// with NewElement or by parsing.
type Node struct {
	Type NodeType
	// Tag is the lower-case element name for ElementNode.
	Tag string
	// Data holds text for TextNode, comment text for CommentNode, and
	// the doctype string for DoctypeNode.
	Data string
	// Attrs are the element attributes in source order.
	Attrs []htmlx.Attribute

	Parent      *Node
	FirstChild  *Node
	LastChild   *Node
	PrevSibling *Node
	NextSibling *Node

	// Shadow is the attached shadow root, if any (elements only).
	Shadow *ShadowRoot
	// FrameDoc is the loaded content document for <iframe> elements.
	// It is populated by the browser, not the parser.
	FrameDoc *Node

	// shadowHost points from a shadow fragment root back to its host,
	// so visibility checks can climb out of shadow trees.
	shadowHost *Node
}

// NewElement returns a detached element with the given tag and
// alternating key/value attribute pairs.
func NewElement(tag string, kv ...string) *Node {
	n := &Node{Type: ElementNode, Tag: strings.ToLower(tag)}
	for i := 0; i+1 < len(kv); i += 2 {
		n.Attrs = append(n.Attrs, htmlx.Attribute{Key: strings.ToLower(kv[i]), Val: kv[i+1]})
	}
	return n
}

// AppendChild adds c as the last child of n. c is detached first if
// necessary.
func (n *Node) AppendChild(c *Node) {
	if c.Parent != nil {
		c.Detach()
	}
	c.Parent = n
	c.PrevSibling = n.LastChild
	if n.LastChild != nil {
		n.LastChild.NextSibling = c
	} else {
		n.FirstChild = c
	}
	n.LastChild = c
}

// InsertBefore inserts c as a child of n immediately before ref.
// If ref is nil it appends.
func (n *Node) InsertBefore(c, ref *Node) {
	if ref == nil {
		n.AppendChild(c)
		return
	}
	if ref.Parent != n {
		panic("dom: InsertBefore reference is not a child")
	}
	if c.Parent != nil {
		c.Detach()
	}
	c.Parent = n
	c.NextSibling = ref
	c.PrevSibling = ref.PrevSibling
	if ref.PrevSibling != nil {
		ref.PrevSibling.NextSibling = c
	} else {
		n.FirstChild = c
	}
	ref.PrevSibling = c
}

// Detach removes n from its parent, leaving its own subtree intact.
func (n *Node) Detach() {
	if n.Parent == nil {
		return
	}
	if n.PrevSibling != nil {
		n.PrevSibling.NextSibling = n.NextSibling
	} else {
		n.Parent.FirstChild = n.NextSibling
	}
	if n.NextSibling != nil {
		n.NextSibling.PrevSibling = n.PrevSibling
	} else {
		n.Parent.LastChild = n.PrevSibling
	}
	n.Parent, n.PrevSibling, n.NextSibling = nil, nil, nil
}

// AppendChildren appends the direct children to dst and returns the
// extended slice.
func (n *Node) AppendChildren(dst []*Node) []*Node {
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		dst = append(dst, c)
	}
	return dst
}

// Attr returns the value of the named attribute (lower-case key) and
// whether it is present.
func (n *Node) Attr(key string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// AttrOr returns the attribute value or def when absent.
func (n *Node) AttrOr(key, def string) string {
	if v, ok := n.Attr(key); ok {
		return v
	}
	return def
}

// SetAttr sets or replaces an attribute.
func (n *Node) SetAttr(key, val string) {
	key = strings.ToLower(key)
	for i, a := range n.Attrs {
		if a.Key == key {
			n.Attrs[i].Val = val
			return
		}
	}
	n.Attrs = append(n.Attrs, htmlx.Attribute{Key: key, Val: val})
}

// ID returns the element id attribute.
func (n *Node) ID() string { return n.AttrOr("id", "") }

// HasClass reports whether the element's class list contains name.
func (n *Node) HasClass(name string) bool {
	cls, ok := n.Attr("class")
	if !ok {
		return false
	}
	for _, c := range strings.Fields(cls) {
		if c == name {
			return true
		}
	}
	return false
}

// attachShadow attaches sr, a zeroed shadow root, to n with the given
// mode and with root (an empty document node) as its fragment root.
// Attaching to a host that already has one replaces the old root,
// which is sufficient for our parser (real DOM would throw).
func (n *Node) attachShadow(sr *ShadowRoot, mode ShadowMode, root *Node) {
	*sr = ShadowRoot{Mode: mode, Host: n, Root: root}
	root.shadowHost = n
	n.Shadow = sr
}

// Walk calls fn for n and every descendant in document order. It does
// not descend into shadow roots or iframe documents; callers that need
// to pierce those boundaries must recurse explicitly (as the paper's
// tooling does).
func (n *Node) Walk(fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		if !c.Walk(fn) {
			return false
		}
	}
	return true
}

// ByID returns the first descendant element with the given id, or nil.
func (n *Node) ByID(id string) *Node {
	var found *Node
	n.Walk(func(d *Node) bool {
		if d.Type == ElementNode && d.ID() == id {
			found = d
			return false
		}
		return true
	})
	return found
}

// Root returns the highest ancestor of n (the document for attached
// nodes, or the shadow fragment root inside a shadow tree).
func (n *Node) Root() *Node {
	r := n
	for r.Parent != nil {
		r = r.Parent
	}
	return r
}

// DocumentElement returns the <html> element of a document, or nil.
func (n *Node) DocumentElement() *Node {
	for c := n.Root().FirstChild; c != nil; c = c.NextSibling {
		if c.Type == ElementNode && c.Tag == "html" {
			return c
		}
	}
	return nil
}

// Body returns the <body> element of the document containing n, or nil.
func (n *Node) Body() *Node {
	html := n.DocumentElement()
	if html == nil {
		return nil
	}
	for c := html.FirstChild; c != nil; c = c.NextSibling {
		if c.Type == ElementNode && c.Tag == "body" {
			return c
		}
	}
	return nil
}

// EachShadowRoot calls fn for every shadow root hosted anywhere in n's
// subtree, including roots hosted inside other shadow trees, in
// document order: a host's root comes before the roots inside it and
// before the hosts after it.
func (n *Node) EachShadowRoot(fn func(*ShadowRoot)) {
	n.Walk(func(e *Node) bool {
		if e.Shadow != nil {
			fn(e.Shadow)
			e.Shadow.Root.EachShadowRoot(fn)
		}
		return true
	})
}

// EachFrameDoc calls fn for the content document of every loaded
// iframe in n's subtree, including frames hosted inside shadow roots,
// in document order. It does not descend into the frame documents.
func (n *Node) EachFrameDoc(fn func(*Node)) {
	n.Walk(func(e *Node) bool {
		if e.Type == ElementNode && e.FrameDoc != nil {
			fn(e.FrameDoc)
		}
		if e.Shadow != nil {
			e.Shadow.Root.EachFrameDoc(fn)
		}
		return true
	})
}
