package dom

import (
	"slices"
	"testing"
	"testing/quick"
)

const selectorFixture = `
<html><body>
  <div id="wrap" class="outer">
    <div class="banner consent" role="dialog" data-cmp="acme">
      <p class="msg">We use cookies</p>
      <button id="accept" class="btn primary" data-action="accept">Accept all</button>
      <button id="reject" class="btn" data-action="reject">Reject</button>
    </div>
    <section>
      <p>article text</p>
      <a href="https://example.com/page">link</a>
      <a href="/local">local</a>
    </section>
  </div>
</body></html>`

func fixture(t *testing.T) *Node {
	t.Helper()
	return Parse(selectorFixture)
}

// query and queryAll compile sel once and run it with Query and
// AppendQueryAll, the way the detector and the browser match selectors.
func query(n *Node, sel string) *Node { return n.Query(MustCompileSelector(sel)) }

func queryAll(n *Node, sel string) []*Node { return n.AppendQueryAll(nil, MustCompileSelector(sel)) }

func TestSelectorTag(t *testing.T) {
	doc := fixture(t)
	if n := len(queryAll(doc, "button")); n != 2 {
		t.Fatalf("buttons = %d", n)
	}
}

func TestSelectorID(t *testing.T) {
	doc := fixture(t)
	n := query(doc, "#accept")
	if n == nil || n.Tag != "button" {
		t.Fatalf("n = %v", n)
	}
}

func TestSelectorClass(t *testing.T) {
	doc := fixture(t)
	if n := len(queryAll(doc, ".btn")); n != 2 {
		t.Fatalf(".btn = %d", n)
	}
	if n := len(queryAll(doc, ".btn.primary")); n != 1 {
		t.Fatalf(".btn.primary = %d", n)
	}
}

func TestSelectorCompound(t *testing.T) {
	doc := fixture(t)
	n := query(doc, `button.btn#accept[data-action=accept]`)
	if n == nil {
		t.Fatal("compound selector failed")
	}
}

func TestSelectorAttr(t *testing.T) {
	doc := fixture(t)
	cases := map[string]int{
		`[role]`:                 1,
		`[role=dialog]`:          1,
		`[data-action]`:          2,
		`[data-action="reject"]`: 1,
		`a[href^="https://"]`:    1,
		`a[href$="/local"]`:      1,
		`a[href*="example.com"]`: 1,
		`[data-cmp*=acm]`:        1,
		`[role=banner]`:          0,
	}
	for sel, want := range cases {
		if got := len(queryAll(doc, sel)); got != want {
			t.Errorf("%s: got %d want %d", sel, got, want)
		}
	}
}

func TestSelectorDescendant(t *testing.T) {
	doc := fixture(t)
	if n := len(queryAll(doc, "div.banner button")); n != 2 {
		t.Fatalf("descendant = %d", n)
	}
	if n := len(queryAll(doc, "section button")); n != 0 {
		t.Fatalf("wrong scope = %d", n)
	}
}

func TestSelectorChild(t *testing.T) {
	doc := fixture(t)
	if n := len(queryAll(doc, "#wrap > div.banner")); n != 1 {
		t.Fatalf("child = %d", n)
	}
	// p.msg is a grandchild of #wrap, not a child.
	if n := len(queryAll(doc, "#wrap > p.msg")); n != 0 {
		t.Fatalf("child over-matched: %d", n)
	}
	if n := len(queryAll(doc, "#wrap p.msg")); n != 1 {
		t.Fatalf("descendant fallback = %d", n)
	}
}

func TestSelectorGroup(t *testing.T) {
	doc := fixture(t)
	if n := len(queryAll(doc, "#accept, #reject, section a")); n != 4 {
		t.Fatalf("group = %d", n)
	}
}

func TestSelectorUniversal(t *testing.T) {
	doc := fixture(t)
	banner := query(doc, "div.banner")
	if n := len(queryAll(banner, "*")); n != 3 {
		t.Fatalf("universal inside banner = %d", n)
	}
}

func TestSelectorCaseInsensitiveTag(t *testing.T) {
	doc := fixture(t)
	if query(doc, "BUTTON#accept") == nil {
		t.Fatal("upper-case tag must match")
	}
}

func TestSelectorScope(t *testing.T) {
	doc := fixture(t)
	section := query(doc, "section")
	if n := query(section, "a"); n == nil {
		t.Fatal("scoped query failed")
	}
	// querySelector semantics: ancestor compounds may match nodes at or
	// above the context element, results are filtered to descendants.
	if query(section, "section a") == nil {
		t.Fatal("anchor element itself should satisfy ancestor compound")
	}
	if query(section, "#wrap a") == nil {
		t.Fatal("ancestors above the anchor should satisfy ancestor compound")
	}
	// But results are always descendants of the context node.
	if query(section, "div.banner button") != nil {
		t.Fatal("query returned a non-descendant")
	}
}

func TestSelectorMatches(t *testing.T) {
	doc := fixture(t)
	btn := doc.ByID("accept")
	if !slices.Contains(queryAll(doc, "div.banner > button.primary"), btn) {
		t.Fatal("selector failed to match")
	}
	if slices.Contains(queryAll(doc, "section > button"), btn) {
		t.Fatal("selector over-matched")
	}
}

func TestSelectorErrors(t *testing.T) {
	bad := []string{"", "  ", ">", "div >", "#", ".", "[", "[=x]", "a,,b", "!!"}
	for _, src := range bad {
		if _, err := CompileSelector(src); err == nil {
			t.Errorf("CompileSelector(%q) succeeded, want error", src)
		}
	}
}

func TestSelectorDoesNotCrossShadow(t *testing.T) {
	doc := Parse(`<div id="host"><template shadowrootmode="open"><button class="pay">Pay</button></template></div>`)
	if query(doc, "button.pay") != nil {
		t.Fatal("selector crossed shadow boundary")
	}
	host := doc.ByID("host")
	if query(host.Shadow.Root, "button.pay") == nil {
		t.Fatal("direct shadow query failed")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCompileSelector(">")
}

// Property: any selector that compiles can run against any document
// without panicking.
func TestQuickSelectorTotal(t *testing.T) {
	doc := fixture(t)
	f := func(s string) bool {
		sel, err := CompileSelector(s)
		if err != nil {
			return true
		}
		_ = doc.AppendQueryAll(nil, sel)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
