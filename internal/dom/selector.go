package dom

import (
	"fmt"
	"strings"
)

// The selector engine supports the subset of CSS used by banner
// detection, cosmetic ad-block filters, and tests:
//
//	tag  #id  .class  [attr]  [attr=v]  [attr^=v]  [attr$=v]  [attr*=v]
//	compound selectors (div.banner#x[role=dialog])
//	descendant (A B) and child (A > B) combinators
//	comma-separated selector groups
//	the universal selector (*)
//
// Selectors never cross shadow or iframe boundaries (standard CSS
// scoping); that limitation is what the paper's shadow workaround
// exists to overcome.

// Selector is a compiled selector group.
type Selector struct {
	alternatives []complexSelector
	src          string
}

type complexSelector struct {
	// compounds[0] is the leftmost; combinators[i] joins compounds[i]
	// and compounds[i+1] and is either ' ' (descendant) or '>' (child).
	compounds   []compound
	combinators []byte
}

type compound struct {
	tag     string // "" or "*" match any
	id      string
	classes []string
	attrs   []attrMatcher
}

type attrMatcher struct {
	key string
	op  byte // 0: present, '=': equals, '^', '$', '*'
	val string
}

// CompileSelector parses a selector group.
func CompileSelector(src string) (*Selector, error) {
	sel := &Selector{src: src}
	for _, part := range splitTopLevel(src, ',') {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("dom: empty selector in %q", src)
		}
		cx, err := parseComplex(part)
		if err != nil {
			return nil, err
		}
		sel.alternatives = append(sel.alternatives, cx)
	}
	if len(sel.alternatives) == 0 {
		return nil, fmt.Errorf("dom: empty selector %q", src)
	}
	return sel, nil
}

// MustCompileSelector is CompileSelector but panics on error; for
// package-level selector constants.
func MustCompileSelector(src string) *Selector {
	s, err := CompileSelector(src)
	if err != nil {
		panic(err)
	}
	return s
}

// String returns the source text of the selector.
func (s *Selector) String() string { return s.src }

// splitTopLevel splits on sep outside [...] brackets.
func splitTopLevel(s string, sep byte) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			if depth > 0 {
				depth--
			}
		case sep:
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, s[start:])
	return parts
}

func parseComplex(src string) (complexSelector, error) {
	var cx complexSelector
	// Tokenize into compounds and combinators.
	i := 0
	expectCompound := true
	for i < len(src) {
		// Skip whitespace, remembering that whitespace between
		// compounds is the descendant combinator.
		ws := i
		for i < len(src) && src[i] == ' ' {
			i++
		}
		sawSpace := i > ws
		if i >= len(src) {
			break
		}
		if src[i] == '>' {
			if expectCompound && len(cx.compounds) == 0 {
				return cx, fmt.Errorf("dom: selector %q starts with combinator", src)
			}
			cx.combinators = append(cx.combinators, '>')
			i++
			expectCompound = true
			continue
		}
		if !expectCompound {
			if !sawSpace {
				return cx, fmt.Errorf("dom: malformed selector %q", src)
			}
			cx.combinators = append(cx.combinators, ' ')
		}
		cp, n, err := parseCompound(src[i:])
		if err != nil {
			return cx, fmt.Errorf("dom: %v in selector %q", err, src)
		}
		cx.compounds = append(cx.compounds, cp)
		i += n
		expectCompound = false
	}
	if len(cx.compounds) == 0 {
		return cx, fmt.Errorf("dom: empty selector %q", src)
	}
	if len(cx.combinators) != len(cx.compounds)-1 {
		return cx, fmt.Errorf("dom: trailing combinator in %q", src)
	}
	return cx, nil
}

func parseCompound(s string) (compound, int, error) {
	var cp compound
	i := 0
	// Optional leading tag or universal.
	if i < len(s) && (isIdentByte(s[i]) || s[i] == '*') {
		if s[i] == '*' {
			cp.tag = "*"
			i++
		} else {
			start := i
			for i < len(s) && isIdentByte(s[i]) {
				i++
			}
			cp.tag = strings.ToLower(s[start:i])
		}
	}
	for i < len(s) {
		switch s[i] {
		case '#':
			i++
			start := i
			for i < len(s) && isIdentByte(s[i]) {
				i++
			}
			if start == i {
				return cp, i, fmt.Errorf("empty id")
			}
			cp.id = s[start:i]
		case '.':
			i++
			start := i
			for i < len(s) && isIdentByte(s[i]) {
				i++
			}
			if start == i {
				return cp, i, fmt.Errorf("empty class")
			}
			cp.classes = append(cp.classes, s[start:i])
		case '[':
			m, n, err := parseAttrMatcher(s[i:])
			if err != nil {
				return cp, i, err
			}
			cp.attrs = append(cp.attrs, m)
			i += n
		default:
			if cp.tag == "" && cp.id == "" && len(cp.classes) == 0 && len(cp.attrs) == 0 {
				return cp, i, fmt.Errorf("unexpected %q", s[i])
			}
			return cp, i, nil
		}
	}
	return cp, i, nil
}

func parseAttrMatcher(s string) (attrMatcher, int, error) {
	// s starts with '['.
	var m attrMatcher
	end := strings.IndexByte(s, ']')
	if end < 0 {
		return m, 0, fmt.Errorf("unterminated attribute selector")
	}
	inner := s[1:end]
	opIdx := -1
	for j := 0; j < len(inner); j++ {
		if inner[j] == '=' {
			opIdx = j
			break
		}
	}
	if opIdx < 0 {
		m.key = strings.ToLower(strings.TrimSpace(inner))
		if m.key == "" {
			return m, 0, fmt.Errorf("empty attribute name")
		}
		return m, end + 1, nil
	}
	key := inner[:opIdx]
	m.op = '='
	if len(key) > 0 {
		switch key[len(key)-1] {
		case '^', '$', '*':
			m.op = key[len(key)-1]
			key = key[:len(key)-1]
		}
	}
	m.key = strings.ToLower(strings.TrimSpace(key))
	if m.key == "" {
		return m, 0, fmt.Errorf("empty attribute name")
	}
	val := strings.TrimSpace(inner[opIdx+1:])
	val = strings.Trim(val, `"'`)
	m.val = val
	return m, end + 1, nil
}

func isIdentByte(c byte) bool {
	return c == '-' || c == '_' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// --- matching -----------------------------------------------------------

func (cp *compound) matches(n *Node) bool {
	if n.Type != ElementNode {
		return false
	}
	if cp.tag != "" && cp.tag != "*" && n.Tag != cp.tag {
		return false
	}
	if cp.id != "" && n.ID() != cp.id {
		return false
	}
	for _, c := range cp.classes {
		if !n.HasClass(c) {
			return false
		}
	}
	for _, am := range cp.attrs {
		v, ok := n.Attr(am.key)
		if !ok {
			return false
		}
		switch am.op {
		case 0:
			// presence only
		case '=':
			if v != am.val {
				return false
			}
		case '^':
			if !strings.HasPrefix(v, am.val) {
				return false
			}
		case '$':
			if !strings.HasSuffix(v, am.val) {
				return false
			}
		case '*':
			if !strings.Contains(v, am.val) {
				return false
			}
		}
	}
	return true
}

// matchesComplex checks the full compound chain by walking ancestors.
func (cx *complexSelector) matches(n *Node, scope *Node) bool {
	last := len(cx.compounds) - 1
	if !cx.compounds[last].matches(n) {
		return false
	}
	return matchRest(cx, last-1, n.Parent, scope)
}

func matchRest(cx *complexSelector, idx int, n *Node, scope *Node) bool {
	if idx < 0 {
		return true
	}
	comb := cx.combinators[idx]
	for cur := n; cur != nil && cur != scope.Parent; cur = cur.Parent {
		if cur.Type != ElementNode {
			if comb == '>' {
				return false
			}
			continue
		}
		if cx.compounds[idx].matches(cur) {
			if matchRest(cx, idx-1, cur.Parent, scope) {
				return true
			}
		}
		if comb == '>' {
			return false // child combinator: only the immediate parent
		}
	}
	return false
}

// Matches reports whether n is an element matching the selector, the
// DOM's Element.matches. Ancestor compounds may match any node up to
// n's root, so n.Query(sel) is the first descendant d of n in document
// order for which d.Matches(sel) holds.
func (n *Node) Matches(sel *Selector) bool {
	if n.Type != ElementNode {
		return false
	}
	scope := n.Root()
	for i := range sel.alternatives {
		if sel.alternatives[i].matches(n, scope) {
			return true
		}
	}
	return false
}

// Query returns the first descendant of n (excluding n) matching the
// selector, in document order, or nil. Matching follows querySelector
// semantics: the selector is evaluated against the whole tree (ancestor
// parts may match nodes above n, including n itself) and results are
// filtered to descendants of n.
func (n *Node) Query(sel *Selector) *Node {
	var found *Node
	n.Walk(func(d *Node) bool {
		if d != n && d.Matches(sel) {
			found = d
			return false
		}
		return true
	})
	return found
}

// AppendQueryAll appends all descendants of n matching the selector,
// in document order, to dst and returns the extended slice. See Query
// for scoping semantics.
func (n *Node) AppendQueryAll(dst []*Node, sel *Selector) []*Node {
	n.Walk(func(d *Node) bool {
		if d != n && d.Matches(sel) {
			dst = append(dst, d)
		}
		return true
	})
	return dst
}
