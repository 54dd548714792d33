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

// ParseFragment parses src as a fragment (no html/head/body synthesis)
// and returns the fragment root. Used for banner markup delivered by
// CMP/SMP scripts, which is injected into an existing page.
func ParseFragment(src string) *Node {
	return new(parser).parse(src, true)
}

// Parser is a reusable HTML parser owning its token stacks, tokenizer
// and node-arena tail; the zero value is ready to use. It is NOT safe
// for concurrent use: it exists so a single-goroutine session (one
// crawl worker's browser) can keep its parse state across visits
// instead of rebuilding it on every page, as the package-level
// Parse/ParseFragment do. Produced trees are identical either way.
type Parser struct {
	p parser
}

// Parse is Parse using this parser's recycled state.
func (ps *Parser) Parse(src string) *Node { return ps.p.parse(src, false) }

// ParseFragment is ParseFragment using this parser's recycled state.
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
	// arena is the tail of the current node-allocation chunk: nodes are
	// handed out from it one by one so a page's worth of nodes costs a
	// few chunk allocations instead of one per node.
	arena []Node
	z     htmlx.Tokenizer
}

// nodeArenaChunk is sized so a typical farm page (≈80 nodes) consumes
// one or two chunks.
const nodeArenaChunk = 64

// newNode hands out a zeroed node from the arena.
func (p *parser) newNode() *Node {
	if len(p.arena) == 0 {
		p.arena = make([]Node, nodeArenaChunk)
	}
	n := &p.arena[0]
	p.arena = p.arena[1:]
	return n
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
			sr := p.top().AttachShadow(ShadowMode(mode))
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

func shadowMode(tok htmlx.Token) string {
	if v, ok := tok.AttrVal("shadowrootmode"); ok {
		v = strings.ToLower(v)
		if v == "open" || v == "closed" {
			return v
		}
	}
	// Legacy attribute name used by early Chromium releases.
	if v, ok := tok.AttrVal("shadowroot"); ok {
		v = strings.ToLower(v)
		if v == "open" || v == "closed" {
			return v
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
