package dom

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// FuzzParse exercises the tree builder with adversarial input. In
// normal test runs the seed corpus executes; `go test -fuzz=FuzzParse`
// explores further.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"<html><body><p>ok</p></body></html>",
		"<div><template shadowrootmode=\"open\"><b>x</b></template></div>",
		"</template></div><template shadowrootmode=closed>",
		"<p><p><p><li><tr><td></div></span>",
		"<script>while(1){}</script><iframe src=x>",
		"<<<>>><!---><!doctype  ><?php ?>",
		"<a href='unterminated",
		"<template shadowrootmode=open><template shadowrootmode=open>",
		"\x00\xff<div \x00 id=\"a\">",
		"<p> a&nbsp;b </p><div><template shadowrootmode=open><p>\u00a0x\t\xc3y </p><iframe></iframe></template></div><iframe></iframe>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		doc := Parse(input)
		if doc == nil {
			t.Fatal("nil document")
		}
		if doc.Body() == nil {
			t.Fatal("no body scaffold")
		}
		// Serialization must be total and re-parseable.
		out := Render(doc)
		doc2 := Parse(out)
		if doc2 == nil || doc2.Body() == nil {
			t.Fatal("re-parse failed")
		}
		// Render is a fixed point after one round trip (idempotent
		// serialization), which keeps snapshots stable.
		if again := Render(doc2); again != Render(Parse(again)) {
			t.Fatalf("render not idempotent for %q", input)
		}
		// DeepText streams its parts through one normalizer. It must
		// equal normalizing the space-joined texts of the parts; every
		// iframe gets a fresh parse of the input as its document.
		deep := Parse(input)
		deep.Walk(func(n *Node) bool {
			if n.Tag == "iframe" {
				n.FrameDoc = Parse(input)
			}
			return true
		})
		deep.EachShadowRoot(func(sr *ShadowRoot) {
			sr.Root.Walk(func(n *Node) bool {
				if n.Tag == "iframe" {
					n.FrameDoc = Parse(input)
				}
				return true
			})
		})
		for _, n := range []*Node{deep, deep.Body()} {
			got, want := n.DeepText(), deepTextRef(n)
			if got != want {
				t.Fatalf("DeepText = %q, want %q (input %q)", got, want, input)
			}
			if appended := n.AppendDeepText([]byte("x")); string(appended) != "x"+got {
				t.Fatalf("AppendDeepText = %q, want %q (input %q)", appended, "x"+got, input)
			}
		}
	})
}

// FuzzParseRecycled checks the Parser's recycled arenas against fresh
// ones: input a is parsed as a document and as a fragment, the parser
// is recycled, and b's trees from the recycled parser must render
// byte-identically to the trees fresh arenas build. The document must
// still render the same after the fragment parse that follows it on
// the same arenas, and a's tree must read as empty after the Recycle.
func FuzzParseRecycled(f *testing.F) {
	seeds := [][2]string{
		{"", ""},
		{"<html><body><p>ok</p></body></html>", "<div id=a class=b>x</div>"},
		{"<div><template shadowrootmode=\"open\"><b>x</b></template></div>", "<p a=1 b=2 c=3>y"},
		{strings.Repeat("<div><template shadowrootmode=closed><i>s</i></template></div>", 10),
			"<p><template shadowroot=OPEN>z</template>"},
		{"<a href='unterminated", "<<<>>><!---><!doctype  ><?php ?>"},
		{strings.Repeat("<i x=1 y=2 z=3>", 200), strings.Repeat("<b q=1>t</b>", 150)},
		{"<p a=1>", "<div " + attrList(300) + ">many</div>"},
		// One host, more templates than the kept chunk holds: each
		// replaces the host's root, so the tree reaches only the last.
		{"<div>" + strings.Repeat("<template shadowrootmode=open></template>", shadowArenaChunk+1), "<div><template shadowrootmode=open>q</template></div>"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		var ps Parser
		docA := ps.Parse(a)
		ps.ParseFragment(a)
		ps.Recycle()
		if docA.Type != DocumentNode || docA.FirstChild != nil || docA.LastChild != nil {
			t.Fatalf("a's document survived Recycle (input %.200q)", a)
		}
		// Every root of a's trees in the parser's kept chunk, whether a
		// host still holds it or a later template of the same host
		// replaced it, must read as empty.
		if ps.p.shadows != nil {
			for i, sr := range ps.p.shadows {
				if sr != (ShadowRoot{}) {
					t.Fatalf("a's shadow root %d %+v survived Recycle (input %.200q)", i, sr, a)
				}
			}
		}
		doc := ps.Parse(b)
		for _, sr := range shadowRoots(doc) {
			if sr.Mode != ShadowOpen && sr.Mode != ShadowClosed || aliases(string(sr.Mode), b) {
				t.Fatalf("shadow mode %q is not a package constant (input %.200q)", sr.Mode, b)
			}
		}
		want := Render(Parse(b))
		if got := Render(doc); got != want {
			t.Fatalf("recycled parse renders %.200q, want %.200q (a %.200q, b %.200q)", got, want, a, b)
		}
		frag := ps.ParseFragment(b)
		if got, want := Render(frag), Render(new(Parser).ParseFragment(b)); got != want {
			t.Fatalf("recycled fragment renders %.200q, want %.200q (a %.200q, b %.200q)", got, want, a, b)
		}
		if got := Render(doc); got != want {
			t.Fatalf("document changed by the fragment parse after it: %.200q, want %.200q (b %.200q)", got, want, b)
		}
	})
}

// shadowRoots returns the shadow roots hosted in n's tree, in
// document order.
func shadowRoots(n *Node) []*ShadowRoot {
	var roots []*ShadowRoot
	n.EachShadowRoot(func(sr *ShadowRoot) { roots = append(roots, sr) })
	return roots
}

// aliases reports whether s shares memory with src.
func aliases(s, src string) bool {
	if len(s) == 0 || len(src) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(src)))
	return p+uintptr(len(s)) > lo && p < lo+uintptr(len(src))
}

// attrList returns n distinct attributes, a run longer than an arena
// chunk.
func attrList(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, " k%d=v%d", i, i)
	}
	return sb.String()
}

// deepTextRef is DeepText assembled part by part: the non-empty texts
// of n, its shadow roots and its frame documents, joined by spaces and
// normalized as one string.
func deepTextRef(n *Node) string {
	var parts []string
	if t := n.Text(); t != "" {
		parts = append(parts, t)
	}
	n.EachShadowRoot(func(sr *ShadowRoot) {
		if t := sr.Root.Text(); t != "" {
			parts = append(parts, t)
		}
	})
	n.EachFrameDoc(func(fd *Node) {
		if t := fd.Text(); t != "" {
			parts = append(parts, t)
		}
	})
	return normalizeSpace(strings.Join(parts, " "))
}

// FuzzSelectors ensures arbitrary selector sources never panic the
// engine, compiled or rejected.
func FuzzSelectors(f *testing.F) {
	for _, s := range []string{
		"div", "#a", ".b.c", "a[b=c]", "x > y z", "a,b,c", "*",
		"[href^='https://']", "div.banner#x[role=dialog]", ">", "[", "..",
	} {
		f.Add(s)
	}
	doc := Parse(selectorFixture)
	f.Fuzz(func(t *testing.T, src string) {
		sel, err := CompileSelector(src)
		if err != nil {
			return
		}
		_ = doc.AppendQueryAll(nil, sel)
	})
}
