package dom

import (
	"strings"

	"cookiewalk/internal/htmlx"
)

// Parse builds a document tree from HTML source. It implements a
// pragmatic subset of the WHATWG tree-construction algorithm:
//
//   - missing html/head/body elements are synthesized so that Body()
//     always works on well-formed-ish pages;
//   - void elements never take children;
//   - a small implied-end-tag table closes <p>, <li>, <option>, <tr>,
//     <td>/<th> the way browsers do;
//   - unmatched end tags are ignored; unclosed elements are closed at
//     EOF;
//   - <template shadowrootmode="open|closed"> attaches a declarative
//     shadow root to its parent element (the template element itself
//     does not appear in the tree, matching browser behaviour).
//
// Parse never fails: like a browser, it produces a best-effort tree for
// arbitrary input.
func Parse(src string) *Node {
	return new(parser).parse(src, false)
}

// Parser is a reusable HTML parser owning its token stacks, tokenizer
// and node, attribute and shadow-root arenas; the zero value is ready
// to use. It is NOT safe for concurrent use: it exists so a
// single-goroutine session (one crawl worker's browser) can keep its
// parse state across visits instead of rebuilding it on every page, as
// the package-level Parse does. Produced trees are identical either
// way.
//
// The arenas are short lists of fixed-size chunks with a cursor (one
// chunk for shadow roots), allocated on first use and never grown by
// append, so a node, attribute or shadow root handed out stays put.
// Every tree the parser returns lives in them until Recycle, which
// clears all of it for the next parses.
// The parser keeps at most a bounded number of chunks (enough for the
// largest browser session the study runs); past them, chunks belong to
// the trees alone, so a parser that is never recycled does not pin
// every page it parsed.
type Parser struct {
	p parser
}

// Parse is Parse using this parser's recycled state.
func (ps *Parser) Parse(src string) *Node { return ps.p.parse(src, false) }

// Recycle clears every node, attribute and shadow root the parser
// handed out since the last Recycle, and the next parses reuse their
// memory. The trees returned before the call must no longer be in use:
// their nodes read as empty from now on. Recycling a parser that
// parsed nothing costs nothing.
func (ps *Parser) Recycle() {
	p := &ps.p
	for _, c := range p.chunks[:p.used] {
		clear(c[:])
	}
	p.used = 0
	p.arena = nil
	if p.nshadow > 0 {
		clear(p.shadows[:p.nshadow])
		p.nshadow = 0
	}
	p.z.Recycle()
}

// ParseFragment parses src as a fragment (no html/head/body synthesis)
// and returns the fragment root. The browser injects banner markup
// delivered by CMP/SMP scripts into an existing page this way.
func (ps *Parser) ParseFragment(src string) *Node { return ps.p.parse(src, true) }

// parse runs one full parse and resets the parser's reusable state.
func (p *parser) parse(src string, fragment bool) *Node {
	p.fragment = fragment
	p.doc = p.newNode()
	p.doc.Type = DocumentNode
	p.stack = append(p.stack, p.doc)
	p.z.Reset(src)
	for {
		tok := p.z.Next()
		if tok.Type == htmlx.ErrorToken {
			break
		}
		p.process(tok)
	}
	if !fragment {
		p.ensureScaffold()
	}
	doc := p.doc
	p.reset()
	return doc
}

type parser struct {
	doc      *Node
	stack    []*Node
	fragment bool
	// shadowStack tracks the declarative shadow templates currently
	// open, so end tags close the right scope.
	shadowStack []*Node // the shadow Root fragments acting as insertion points
	// arena is the tail of the current node chunk: nodes are handed out
	// from it one by one, so a page's worth of nodes costs no allocation
	// once the chunks exist.
	arena []Node
	// chunks are the node chunks kept for reuse, allocated on first use;
	// the first used of them were handed out since the last Recycle.
	chunks [maxNodeChunks]*[nodeArenaChunk]Node
	used   int
	// shadows is the kept shadow-root chunk, allocated on first use; the
	// first nshadow of its roots were handed out since the last Recycle.
	// Past it, roots are allocated one by one and belong to their trees.
	shadows *[shadowArenaChunk]ShadowRoot
	nshadow int
	z       htmlx.Tokenizer
}

const (
	// nodeArenaChunk is sized so a typical farm page (≈80 nodes)
	// consumes one or two chunks.
	nodeArenaChunk = 64
	// maxNodeChunks bounds the node chunks a Parser keeps: enough for
	// the largest browser session the study runs, which used 13 at seed
	// 42, scale 1.
	maxNodeChunks = 16
	// shadowArenaChunk bounds the shadow roots a Parser keeps: a farm
	// page has at most one declarative shadow host, and a browser
	// session composes at most four pages.
	shadowArenaChunk = 8
)

// newNode hands out a zeroed node from the arena.
func (p *parser) newNode() *Node {
	if len(p.arena) == 0 {
		p.arena = p.nextChunk()
	}
	n := &p.arena[0]
	p.arena = p.arena[1:]
	return n
}

// nextChunk returns the next kept node chunk or, past the kept ones,
// one the parser does not keep.
func (p *parser) nextChunk() []Node {
	if p.used == len(p.chunks) {
		return make([]Node, nodeArenaChunk)
	}
	c := p.chunks[p.used]
	if c == nil {
		c = new([nodeArenaChunk]Node)
		p.chunks[p.used] = c
	}
	p.used++
	return c[:]
}

// newShadowRoot hands out a zeroed shadow root from the kept chunk or,
// past it, one the parser does not keep.
func (p *parser) newShadowRoot() *ShadowRoot {
	if p.nshadow == shadowArenaChunk {
		return new(ShadowRoot)
	}
	if p.shadows == nil {
		p.shadows = new([shadowArenaChunk]ShadowRoot)
	}
	p.nshadow++
	return &p.shadows[p.nshadow-1]
}

// newElement hands out an element node from the arena.
func (p *parser) newElement(tag string, attrs []htmlx.Attribute) *Node {
	n := p.newNode()
	n.Type = ElementNode
	n.Tag = tag
	n.Attrs = attrs
	return n
}

// reset clears the parser for its next parse. Stacks are cleared so an
// idle parser does not pin finished documents; the arena tail is kept —
// its handed-out prefix belongs to the returned tree, the rest feeds
// the next parse.
func (p *parser) reset() {
	clear(p.stack)
	p.stack = p.stack[:0]
	clear(p.shadowStack)
	p.shadowStack = p.shadowStack[:0]
	p.doc = nil
	p.z.Reset("")
}

func (p *parser) top() *Node { return p.stack[len(p.stack)-1] }

func (p *parser) push(n *Node) { p.stack = append(p.stack, n) }

func (p *parser) pop() { p.stack = p.stack[:len(p.stack)-1] }

func (p *parser) process(tok htmlx.Token) {
	switch tok.Type {
	case htmlx.TextToken:
		if strings.TrimSpace(tok.Data) == "" && p.top().Type == DocumentNode {
			return // inter-element whitespace at document level
		}
		p.ensureBodyForContent()
		t := p.newNode()
		t.Type = TextNode
		t.Data = tok.Data
		p.top().AppendChild(t)
	case htmlx.CommentToken:
		c := p.newNode()
		c.Type = CommentNode
		c.Data = tok.Data
		p.top().AppendChild(c)
	case htmlx.DoctypeToken:
		d := p.newNode()
		d.Type = DoctypeNode
		d.Data = tok.Data
		p.doc.AppendChild(d)
	case htmlx.StartTagToken, htmlx.SelfClosingTagToken:
		p.startTag(tok)
	case htmlx.EndTagToken:
		p.endTag(tok.Data)
	}
}

// blockish elements implicitly close an open <p>.
var closesP = map[string]bool{
	"address": true, "article": true, "aside": true, "blockquote": true,
	"div": true, "dl": true, "fieldset": true, "footer": true, "form": true,
	"h1": true, "h2": true, "h3": true, "h4": true, "h5": true, "h6": true,
	"header": true, "hr": true, "main": true, "nav": true, "ol": true,
	"p": true, "pre": true, "section": true, "table": true, "ul": true,
}

func (p *parser) startTag(tok htmlx.Token) {
	name := tok.Data
	if !p.fragment {
		switch name {
		case "html", "head", "body":
			p.scaffoldElement(name, tok.Attr)
			return
		}
		p.ensureBodyForElement(name)
	}

	// Implied end tags.
	switch {
	case closesP[name]:
		p.closeImplied("p")
	case name == "li":
		p.closeImplied("li")
	case name == "option":
		p.closeImplied("option")
	case name == "tr":
		p.closeImplied("tr")
	case name == "td" || name == "th":
		p.closeImplied("td")
		p.closeImplied("th")
	}

	// Declarative shadow DOM.
	if name == "template" {
		mode := shadowMode(tok)
		if mode != "" && p.top().Type == ElementNode {
			root := p.newNode()
			root.Type = DocumentNode
			sr := p.newShadowRoot()
			p.top().attachShadow(sr, mode, root)
			p.push(sr.Root)
			p.shadowStack = append(p.shadowStack, sr.Root)
			return
		}
	}

	el := p.newElement(name, tok.Attr)
	p.top().AppendChild(el)
	if tok.Type == htmlx.SelfClosingTagToken || htmlx.IsVoid(name) {
		return
	}
	p.push(el)
}

// shadowMode returns the declarative shadow-root mode a template
// token asks for, or "". The mode is one of the package's constants,
// never the attribute value itself: a mode outlives the parse (analysis
// results keep it), and a slice of the value would keep the whole page
// alive.
func shadowMode(tok htmlx.Token) ShadowMode {
	// shadowroot is the legacy name used by early Chromium releases.
	for _, name := range [...]string{"shadowrootmode", "shadowroot"} {
		if v, ok := tok.AttrVal(name); ok {
			switch strings.ToLower(v) {
			case "open":
				return ShadowOpen
			case "closed":
				return ShadowClosed
			}
		}
	}
	return ""
}

// closeImplied pops the stack if the current node is the given tag.
func (p *parser) closeImplied(tag string) {
	if len(p.stack) > 1 && p.top().Type == ElementNode && p.top().Tag == tag {
		p.pop()
	}
}

func (p *parser) endTag(name string) {
	if name == "template" && len(p.shadowStack) > 0 {
		// Close the innermost declarative shadow scope: pop the stack
		// down to (and including) the shadow fragment root.
		root := p.shadowStack[len(p.shadowStack)-1]
		for len(p.stack) > 1 {
			t := p.top()
			p.pop()
			if t == root {
				break
			}
		}
		p.shadowStack = p.shadowStack[:len(p.shadowStack)-1]
		return
	}
	// Find a matching open element; ignore the end tag if none.
	for i := len(p.stack) - 1; i >= 1; i-- {
		n := p.stack[i]
		if n.Type == ElementNode && n.Tag == name {
			p.stack = p.stack[:i]
			return
		}
		if n.Type == DocumentNode {
			return // never pop across a shadow boundary
		}
	}
}

// --- html/head/body scaffolding ----------------------------------------

func (p *parser) htmlNode() *Node {
	for c := p.doc.FirstChild; c != nil; c = c.NextSibling {
		if c.Type == ElementNode && c.Tag == "html" {
			return c
		}
	}
	return nil
}

func childElement(n *Node, tag string) *Node {
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		if c.Type == ElementNode && c.Tag == tag {
			return c
		}
	}
	return nil
}

func (p *parser) scaffoldElement(name string, attrs []htmlx.Attribute) {
	switch name {
	case "html":
		html := p.htmlNode()
		if html == nil {
			html = p.newElement("html", attrs)
			p.doc.AppendChild(html)
		}
		p.setStack(p.doc, html)
	case "head":
		html := p.requireHTML()
		head := childElement(html, "head")
		if head == nil {
			head = p.newElement("head", attrs)
			html.AppendChild(head)
		}
		p.setStack(p.doc, html, head)
	case "body":
		html := p.requireHTML()
		body := childElement(html, "body")
		if body == nil {
			body = p.newElement("body", attrs)
			html.AppendChild(body)
		}
		p.setStack(p.doc, html, body)
	}
}

// setStack replaces the open-element stack in place, reusing its
// backing array.
func (p *parser) setStack(nodes ...*Node) {
	p.stack = append(p.stack[:0], nodes...)
}

func (p *parser) requireHTML() *Node {
	html := p.htmlNode()
	if html == nil {
		html = p.newElement("html", nil)
		p.doc.AppendChild(html)
	}
	return html
}

// headOnly elements belong in <head> when no body is open yet.
var headOnly = map[string]bool{
	"title": true, "meta": true, "link": true, "style": true, "base": true,
}

// ensureBodyForElement makes sure an appropriate insertion point exists
// before a non-scaffold element start tag: content at document level is
// placed into head or body depending on the element, and a flow element
// arriving while <head> is open closes head and opens body, the way
// browsers do.
func (p *parser) ensureBodyForElement(name string) {
	top := p.top()
	switch {
	case top == p.doc:
		html := p.requireHTML()
		if headOnly[name] {
			head := childElement(html, "head")
			if head == nil {
				head = p.newElement("head", nil)
				html.AppendChild(head)
			}
			p.setStack(p.doc, html, head)
			return
		}
		p.switchToBody(html)
	case top.Type == ElementNode && top.Tag == "head" && !headOnly[name]:
		p.switchToBody(p.requireHTML())
	}
}

func (p *parser) switchToBody(html *Node) {
	body := childElement(html, "body")
	if body == nil {
		body = p.newElement("body", nil)
		html.AppendChild(body)
	}
	p.setStack(p.doc, html, body)
}

func (p *parser) ensureBodyForContent() {
	if p.fragment {
		return
	}
	if top := p.top(); top == p.doc || (top.Type == ElementNode && top.Tag == "head") {
		p.switchToBody(p.requireHTML())
	}
}

// ensureScaffold guarantees html/head/body exist after parsing.
func (p *parser) ensureScaffold() {
	if p.fragment {
		return
	}
	html := p.requireHTML()
	if childElement(html, "head") == nil {
		html.InsertBefore(p.newElement("head", nil), html.FirstChild)
	}
	if childElement(html, "body") == nil {
		html.AppendChild(p.newElement("body", nil))
	}
}
