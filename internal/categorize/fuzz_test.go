package categorize

import "testing"

// FuzzTextScorers checks both instantiations of Classify against the
// string-only code they replaced (classify_ref_test.go): the string
// and the []byte form must return exactly the reference's category on
// every input, invalid UTF-8 included.
func FuzzTextScorers(f *testing.F) {
	for _, text := range []string{
		"",
		"Aktuelle Nachrichten und Schlagzeilen aus der Politik",
		"Aktien und Börse: Kredit und Zinsen bei der Bank",
		"Lexikon, Enzyklopädie und Wörterbuch im Menü",
		"Resor och hotell: samhälle och hälsa",
		"BÖRSE MENÜ E-MAIL e‐mail",
		"\xc3 börse \xc3\xb6 \xe0\xc3\xb6rse \xff ménü",
		"a\xc3",
		"sport nachrichten",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		want := refClassify(text)
		if got := Classify(text); got != want {
			t.Fatalf("Classify(%q) = %q, reference %q", text, got, want)
		}
		if got := Classify([]byte(text)); got != want {
			t.Fatalf("Classify([]byte(%q)) = %q, reference %q", text, got, want)
		}
	})
}

// TestClassifyBytesAllocatesNothing pins the []byte form to zero
// allocations on text with non-ASCII letters: a caller's reusable
// text buffer is scored where it lies.
func TestClassifyBytesAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is exact; skip in -short/-race runs")
	}
	text := []byte("Aktien und Börse: Kredit, Zinsen und Ernährung im Wörterbuch — Enzyklopädie für Gäste")
	if got := testing.AllocsPerRun(100, func() { Classify(text) }); got != 0 {
		t.Errorf("Classify on bytes with non-ASCII letters allocates %.1f, want 0", got)
	}
}
