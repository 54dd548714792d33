package langdetect

import "testing"

// FuzzTextScorers checks both instantiations of Detect against the
// string-only code they replaced (detect_ref_test.go): the string and
// the []byte form must return exactly the reference's result on every
// input, invalid UTF-8 and every diacritic hint included.
func FuzzTextScorers(f *testing.F) {
	for _, text := range samples {
		f.Add(text)
	}
	for _, text := range []string{
		"",
		"und der die",
		"Die Straße über Äpfel: größer, schön",
		"ÄÖÜ upper-case hints score nothing: und der die",
		"¿Qué? ¡Sí! el la los con más",
		"och att det på är å æ ø",
		"\xc3 und \xc3\xa4 der \xe0\xc3\xa4 die \xff\xfe ä",
		"a\xc3",
		"İstanbul ǅemal ﬁle ß ſ K",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		want := refDetect(text)
		if got := Detect(text); got != want {
			t.Fatalf("Detect(%q) = %+v, reference %+v", text, got, want)
		}
		if got := Detect([]byte(text)); got != want {
			t.Fatalf("Detect([]byte(%q)) = %+v, reference %+v", text, got, want)
		}
	})
}

// TestDetectBytesAllocatesNothing pins the []byte form to zero
// allocations on text with non-ASCII letters and diacritic hints: a
// caller's reusable text buffer is scored where it lies.
func TestDetectBytesAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is exact; skip in -short/-race runs")
	}
	for _, lang := range []string{"de", "sv", "fr", "pt"} {
		text := []byte(samples[lang])
		if got := testing.AllocsPerRun(100, func() { Detect(text) }); got != 0 {
			t.Errorf("Detect on the %s sample's bytes allocates %.1f, want 0", lang, got)
		}
	}
}
