// Package strarena carves immutable strings from append-only chunks,
// so that many short-lived-or-not strings cost one allocation per chunk
// instead of one each.
//
// An Arena is built on strings.Builder, which never rewrites a byte it
// has handed out: appending writes past the strings already taken, and
// growing copies into a new buffer while the old one stays with the
// strings that point into it. So every string an Arena returns stays as
// it was for as long as it is referenced, with no unsafe code, and a
// chunk lives exactly as long as any string carved from it.
//
// An Arena is never rewound; a caller that wants memory back drops the
// Arena (or its strings) and lets the collector free the chunks.
package strarena

import "strings"

// ChunkSize is the size of the chunks an Arena carves strings from.
const ChunkSize = 16 << 10

// Arena hands out strings written into its current chunk. Its zero
// value is ready and allocates nothing until the first string; it is
// not safe for concurrent use, and must not be copied after first use.
//
// A string is built like a strings.Builder's: Begin starts it, the
// Write methods append to it, and String returns it.
type Arena struct {
	b     strings.Builder
	start int // where the current string begins in b
}

// Begin starts a new string of about n bytes. When the current chunk
// cannot fit n more bytes, a new chunk starts; a string longer than a
// chunk gets a chunk of its own. n is a size hint: writing more is
// still correct, but grows the chunk by copying it.
func (a *Arena) Begin(n int) {
	if a.b.Cap()-a.b.Len() < n {
		a.b.Reset()
		a.b.Grow(max(n, ChunkSize))
	}
	a.start = a.b.Len()
}

// WriteString appends s to the current string.
func (a *Arena) WriteString(s string) { a.b.WriteString(s) }

// WriteByte appends c to the current string.
func (a *Arena) WriteByte(c byte) error { return a.b.WriteByte(c) }

// Write appends p to the current string.
func (a *Arena) Write(p []byte) { a.b.Write(p) }

// Len returns the length of the current string.
func (a *Arena) Len() int { return a.b.Len() - a.start }

// String returns the current string. Later writes never change it.
func (a *Arena) String() string { return a.b.String()[a.start:] }

// Clone returns a copy of p carved from the arena.
func (a *Arena) Clone(p []byte) string {
	a.Begin(len(p))
	a.b.Write(p)
	return a.String()
}

// CloneString returns a copy of s carved from the arena.
func (a *Arena) CloneString(s string) string {
	a.Begin(len(s))
	a.b.WriteString(s)
	return a.String()
}
