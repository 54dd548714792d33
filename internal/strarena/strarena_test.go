package strarena

import (
	"strings"
	"testing"
)

// FuzzArena writes a sequence of strings of arbitrary lengths, each
// sized by a Begin hint that may be short, exact or long, and checks
// that every string taken still equals its reference copy after all the
// later writes and chunk changes.
func FuzzArena(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{255, 255, 255, 255, 7, 200, 13})
	f.Add([]byte{64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var a Arena
		var got, want []string
		for i, op := range ops {
			// Lengths reach past a chunk: op*97 runs to 24 735 bytes.
			n := int(op) * 97
			if op%5 == 0 {
				n = int(op) % 7
			}
			hint := n
			switch op % 3 {
			case 1:
				hint = n / 2 // short: the string outgrows its reservation
			case 2:
				hint = n + 11
			}
			ref := strings.Repeat(string(rune('a'+i%26)), n)
			a.Begin(hint)
			for j := 0; j < len(ref); {
				k := min(len(ref)-j, 1+(j+int(op))%13)
				switch k {
				case 1:
					a.WriteByte(ref[j])
				case 2:
					a.Write([]byte(ref[j : j+k]))
				default:
					a.WriteString(ref[j : j+k])
				}
				j += k
			}
			if a.Len() != n {
				t.Fatalf("op %d: Len %d after writing %d bytes", i, a.Len(), n)
			}
			got, want = append(got, a.String()), append(want, ref)
			if i%4 == 3 {
				s := ref[:len(ref)/2]
				got, want = append(got, a.CloneString(s)), append(want, s)
				got, want = append(got, a.Clone([]byte(s))), append(want, s)
			}
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("string %d changed after later writes: %.40q, want %.40q", i, got[i], want[i])
			}
		}
	})
}

// TestArenaChunks checks when chunks are allocated: none for the zero
// value, one per ChunkSize of short strings, and one of its own for a
// string longer than a chunk.
func TestArenaChunks(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is exact; skip in -short/-race runs")
	}
	var a Arena
	if a.String() != "" || a.Len() != 0 || a.CloneString("") != "" {
		t.Fatal("zero Arena is not empty")
	}
	short := strings.Repeat("x", 100)
	got := testing.AllocsPerRun(10*ChunkSize/len(short), func() { a.CloneString(short) })
	if want := float64(len(short)) / ChunkSize; got > 2*want {
		t.Errorf("short strings allocate %.4f each, want about %.4f", got, want)
	}
	long := strings.Repeat("y", ChunkSize+1)
	if got := testing.AllocsPerRun(10, func() {
		if a.CloneString(long) != long {
			t.Fatal("long string corrupted")
		}
	}); got != 1 {
		t.Errorf("a string longer than a chunk allocates %.1f, want 1", got)
	}
}
