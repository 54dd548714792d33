package htmlx

import "strings"

// Tokenizer splits HTML input into Tokens. It operates on a string and
// never mutates it; Tokens reference freshly built strings, so input
// buffers may be reused by callers.
//
// A start tag's attributes are a run in the tokenizer's attribute
// arena: a short list of fixed-size chunks with a cursor. The arena is
// never grown by append, so a run handed out stays put; a run that
// outgrows its chunk moves whole to the next chunk before it is handed
// out. Reset keeps the arena, so the Attr slices of earlier inputs stay
// valid; Recycle clears every run handed out and rewinds the cursor,
// and the next tags reuse the memory. The tokenizer keeps at most
// maxAttrChunks chunks: past them, chunks are allocated for the trees
// that hold them and left to the collector, so a tokenizer that is
// never recycled does not pin every page it read.
//
// The zero value is ready once Reset points it at an input:
//
//	var z htmlx.Tokenizer
//	z.Reset(page)
//	for {
//		tok := z.Next()
//		if tok.Type == htmlx.ErrorToken {
//			break
//		}
//		...
//	}
type Tokenizer struct {
	input string
	pos   int
	// rawTag, when non-empty, is the element name whose raw-text content
	// we are inside (script, style, title, textarea, xmp).
	rawTag string
	// attrs is the arena's current chunk: every start tag's attributes
	// are appended to it and sliced out with a capped three-index slice,
	// so a page's attributes cost no allocation once the chunks exist.
	// The runs escape into the emitted tokens (and from there into DOM
	// nodes).
	attrs []Attribute
	// chunks are the arena chunks kept for reuse, allocated on first
	// use; the first used of them were handed out since the last Recycle.
	chunks [maxAttrChunks]*[attrChunk]Attribute
	used   int
}

const (
	// attrChunk is sized so a typical farm page's attributes fit one
	// chunk.
	attrChunk = 128
	// maxAttrChunks bounds the chunks a tokenizer keeps: enough for the
	// largest browser session the study runs, which used 9 at seed 42,
	// scale 1.
	maxAttrChunks = 12
)

// Reset targets the tokenizer at a new input, so one struct serves
// every page a parser reads. Previously emitted tokens stay valid: the
// attribute arena is only rewound by Recycle.
func (z *Tokenizer) Reset(input string) {
	z.input = input
	z.pos = 0
	z.rawTag = ""
}

// Recycle clears every attribute handed out since the last Recycle and
// rewinds the arena, so the next tags reuse its chunks. The Attr slices
// of earlier tokens must no longer be in use: they read as empty
// attributes from now on.
func (z *Tokenizer) Recycle() {
	for _, c := range z.chunks[:z.used] {
		clear(c[:])
	}
	z.used = 0
	z.attrs = nil
}

// nextChunk returns an empty chunk with room for at least n
// attributes: the next kept chunk, or, past the kept ones or for a run
// longer than a chunk, a chunk the tokenizer does not keep.
func (z *Tokenizer) nextChunk(n int) []Attribute {
	switch {
	case n > attrChunk:
		return make([]Attribute, 0, 2*n)
	case z.used == len(z.chunks):
		return make([]Attribute, 0, attrChunk)
	}
	c := z.chunks[z.used]
	if c == nil {
		c = new([attrChunk]Attribute)
		z.chunks[z.used] = c
	}
	z.used++
	return c[:0]
}

// Next returns the next token. At end of input it returns a token with
// Type ErrorToken forever after.
func (z *Tokenizer) Next() Token {
	if z.pos >= len(z.input) {
		return Token{Type: ErrorToken}
	}
	if z.rawTag != "" {
		return z.nextRawText()
	}
	if z.input[z.pos] == '<' {
		return z.nextTag()
	}
	return z.nextText()
}

// nextText consumes character data up to the next plausible tag-open.
func (z *Tokenizer) nextText() Token {
	start := z.pos
	for z.pos < len(z.input) {
		i := strings.IndexByte(z.input[z.pos:], '<')
		if i < 0 {
			z.pos = len(z.input)
			break
		}
		z.pos += i
		// Only '<' followed by a letter, '/', '!' or '?' opens markup;
		// a bare '<' (e.g. "1 < 2") is text, per the HTML5 tokenizer.
		if z.pos+1 < len(z.input) && isTagStarter(z.input[z.pos+1]) {
			break
		}
		z.pos++
	}
	return Token{Type: TextToken, Data: UnescapeEntities(z.input[start:z.pos])}
}

func isTagStarter(c byte) bool {
	return c == '/' || c == '!' || c == '?' || isASCIILetter(c)
}

func isASCIILetter(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// nextRawText consumes content inside a raw-text element until the
// matching end tag, emitting the content first and the end tag on the
// following call.
func (z *Tokenizer) nextRawText() Token {
	closer := "</" + z.rawTag
	// Byte-wise ASCII case folding (not strings.ToLower): Unicode
	// lowering re-encodes invalid UTF-8 bytes as U+FFFD and CHANGES
	// STRING LENGTH, which would misalign idx against the raw input
	// (found by fuzzing). indexFoldASCII also avoids copying the whole
	// remaining input just to search it.
	idx := indexFoldASCII(z.input[z.pos:], closer)
	if idx < 0 {
		// Unterminated raw text: everything remaining is content.
		data := z.input[z.pos:]
		z.pos = len(z.input)
		z.rawTag = ""
		return Token{Type: TextToken, Data: data}
	}
	if idx > 0 {
		data := z.input[z.pos : z.pos+idx]
		z.pos += idx
		// Leave rawTag set; the next call re-finds the closer at idx 0.
		return Token{Type: TextToken, Data: data}
	}
	// At the end tag itself.
	name := z.rawTag
	z.rawTag = ""
	// Consume "</name" plus anything to '>'.
	z.pos += len(closer)
	if gt := strings.IndexByte(z.input[z.pos:], '>'); gt >= 0 {
		z.pos += gt + 1
	} else {
		z.pos = len(z.input)
	}
	return Token{Type: EndTagToken, Data: name}
}

// nextTag handles everything that begins with '<'.
func (z *Tokenizer) nextTag() Token {
	// Invariant: z.input[z.pos] == '<'.
	if z.pos+1 >= len(z.input) {
		z.pos = len(z.input)
		return Token{Type: TextToken, Data: "<"}
	}
	switch c := z.input[z.pos+1]; {
	case c == '!':
		return z.nextMarkupDeclaration()
	case c == '?':
		return z.nextBogusComment(z.pos + 2)
	case c == '/':
		return z.nextEndTag()
	case isASCIILetter(c):
		return z.nextStartTag()
	default:
		// Lone '<': emit as text (handled by nextText normally, but be
		// defensive if called directly).
		z.pos++
		return Token{Type: TextToken, Data: "<"}
	}
}

func (z *Tokenizer) nextMarkupDeclaration() Token {
	rest := z.input[z.pos+2:]
	switch {
	case strings.HasPrefix(rest, "--"):
		return z.nextComment()
	case len(rest) >= 7 && strings.EqualFold(rest[:7], "doctype"):
		end := strings.IndexByte(rest, '>')
		if end < 0 {
			z.pos = len(z.input)
			return Token{Type: DoctypeToken, Data: strings.TrimSpace(rest[7:])}
		}
		tok := Token{Type: DoctypeToken, Data: strings.TrimSpace(rest[7:end])}
		z.pos += 2 + end + 1
		return tok
	default:
		return z.nextBogusComment(z.pos + 2)
	}
}

func (z *Tokenizer) nextComment() Token {
	// z.pos is at "<!--".
	start := z.pos + 4
	end := strings.Index(z.input[start:], "-->")
	if end < 0 {
		tok := Token{Type: CommentToken, Data: z.input[start:]}
		z.pos = len(z.input)
		return tok
	}
	tok := Token{Type: CommentToken, Data: z.input[start : start+end]}
	z.pos = start + end + 3
	return tok
}

// nextBogusComment consumes from start to the next '>' as a comment,
// matching the spec's bogus-comment state (<? ... > and <!x ... >).
func (z *Tokenizer) nextBogusComment(start int) Token {
	end := strings.IndexByte(z.input[start:], '>')
	if end < 0 {
		tok := Token{Type: CommentToken, Data: z.input[start:]}
		z.pos = len(z.input)
		return tok
	}
	tok := Token{Type: CommentToken, Data: z.input[start : start+end]}
	z.pos = start + end + 1
	return tok
}

func (z *Tokenizer) nextEndTag() Token {
	// z.pos at "</".
	i := z.pos + 2
	nameStart := i
	for i < len(z.input) && isNameByte(z.input[i]) {
		i++
	}
	name := internName(strings.ToLower(z.input[nameStart:i]))
	// Skip to '>'.
	for i < len(z.input) && z.input[i] != '>' {
		i++
	}
	if i < len(z.input) {
		i++
	}
	z.pos = i
	if name == "" {
		// "</>" — the spec drops it entirely; emit nothing by recursing.
		return z.Next()
	}
	return Token{Type: EndTagToken, Data: name}
}

func (z *Tokenizer) nextStartTag() Token {
	i := z.pos + 1
	nameStart := i
	for i < len(z.input) && isNameByte(z.input[i]) {
		i++
	}
	name := internName(strings.ToLower(z.input[nameStart:i]))
	tok := Token{Type: StartTagToken, Data: name}
	arenaStart := len(z.attrs)
	// Attribute loop.
	for {
		i = skipSpace(z.input, i)
		if i >= len(z.input) {
			break
		}
		if z.input[i] == '>' {
			i++
			break
		}
		if z.input[i] == '/' {
			// Possible self-closing.
			if i+1 < len(z.input) && z.input[i+1] == '>' {
				tok.Type = SelfClosingTagToken
				i += 2
				break
			}
			i++ // stray '/': skip
			continue
		}
		var attr Attribute
		attr, i = parseAttribute(z.input, i)
		if attr.Key != "" && !hasAttr(z.attrs[arenaStart:], attr.Key) {
			if len(z.attrs) == cap(z.attrs) {
				// The chunk is full: move this tag's run to the next one.
				run := z.attrs[arenaStart:]
				z.attrs = append(z.nextChunk(len(run)+1), run...)
				arenaStart = 0
			}
			z.attrs = append(z.attrs, attr)
		}
	}
	if end := len(z.attrs); end > arenaStart {
		tok.Attr = z.attrs[arenaStart:end:end]
	}
	z.pos = i
	if tok.Type == StartTagToken && IsRawText(name) {
		z.rawTag = name
	}
	return tok
}

// internedNames canonicalizes the tag and attribute names the farm and
// real-world consent markup use constantly. Interning matters in two
// ways: lower-cased names of already-lower-case input are substrings of
// the page body, and swapping them for the canonical constant both
// releases the page string for collection and lets downstream string
// comparisons hit the pointer-equality fast path.
var internedNames = func() map[string]string {
	m := make(map[string]string, 64)
	for _, n := range []string{
		"a", "article", "aside", "body", "br", "button", "div", "footer",
		"form", "h1", "h2", "h3", "head", "header", "html", "iframe",
		"img", "input", "li", "link", "main", "meta", "nav", "noscript",
		"ol", "option", "p", "script", "section", "select", "span",
		"style", "table", "td", "template", "th", "title", "tr", "ul",
		// attribute names
		"action", "alt", "aria-modal", "async", "charset", "class",
		"data-action", "data-cw-if-blocked", "data-cw-inject",
		"data-scroll-lock-if-blocked", "data-target", "height", "hidden",
		"href", "id", "lang", "method", "name", "rel", "role",
		"shadowroot", "shadowrootmode", "src", "type", "width",
	} {
		m[n] = n
	}
	return m
}()

// internName returns the canonical instance of a (lower-case) tag or
// attribute name when it is a common one.
func internName(s string) string {
	if c, ok := internedNames[s]; ok {
		return c
	}
	return s
}

func hasAttr(attrs []Attribute, key string) bool {
	for _, a := range attrs {
		if a.Key == key {
			return true
		}
	}
	return false
}

// parseAttribute parses one attribute starting at s[i] and returns it
// with the new position. The key is lower-cased and the value entity-
// decoded.
func parseAttribute(s string, i int) (Attribute, int) {
	keyStart := i
	for i < len(s) && !isAttrKeyEnd(s[i]) {
		i++
	}
	key := internName(strings.ToLower(s[keyStart:i]))
	i = skipSpace(s, i)
	if i >= len(s) || s[i] != '=' {
		return Attribute{Key: key}, i
	}
	i = skipSpace(s, i+1)
	if i >= len(s) {
		return Attribute{Key: key}, i
	}
	switch q := s[i]; q {
	case '"', '\'':
		i++
		valStart := i
		for i < len(s) && s[i] != q {
			i++
		}
		val := UnescapeEntities(s[valStart:i])
		if i < len(s) {
			i++ // closing quote
		}
		return Attribute{Key: key, Val: val}, i
	default:
		valStart := i
		for i < len(s) && !isSpaceByte(s[i]) && s[i] != '>' {
			i++
		}
		return Attribute{Key: key, Val: UnescapeEntities(s[valStart:i])}, i
	}
}

func isAttrKeyEnd(c byte) bool {
	return isSpaceByte(c) || c == '=' || c == '>' || c == '/'
}

func isNameByte(c byte) bool {
	return isASCIILetter(c) || (c >= '0' && c <= '9') || c == '-' || c == '_' || c == ':'
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

// indexFoldASCII returns the index of the first occurrence of pattern
// in s under byte-wise ASCII case folding, or -1. pattern must already
// be lower-case ASCII (raw-text closers are). Folding byte-by-byte
// preserves length even for invalid UTF-8 input.
func indexFoldASCII(s, pattern string) int {
	if len(pattern) == 0 {
		return 0
	}
	c0 := pattern[0]
	u0 := c0
	if c0 >= 'a' && c0 <= 'z' {
		u0 = c0 - 32
	}
	for i := 0; i+len(pattern) <= len(s); i++ {
		if s[i] != c0 && s[i] != u0 {
			continue
		}
		j := 1
		for ; j < len(pattern); j++ {
			c := s[i+j]
			if c >= 'A' && c <= 'Z' {
				c += 32
			}
			if c != pattern[j] {
				break
			}
		}
		if j == len(pattern) {
			return i
		}
	}
	return -1
}

func skipSpace(s string, i int) int {
	for i < len(s) && isSpaceByte(s[i]) {
		i++
	}
	return i
}
