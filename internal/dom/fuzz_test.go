package dom

import (
	"strings"
	"testing"
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
		_ = doc.QueryAll(sel)
	})
}
