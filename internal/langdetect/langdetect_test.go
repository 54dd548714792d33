package langdetect

import (
	"testing"
	"unicode/utf8"
)

var samples = map[string]string{
	"de": "Wir verwenden Cookies und ähnliche Technologien, um Ihnen die Inhalte auf unserer Website anzubieten. Sie können den Dienst ohne Werbung für 2,99 Euro im Monat nutzen oder der Verarbeitung Ihrer Daten zustimmen.",
	"en": "We use cookies and similar technologies to provide you with the content on our website. You can use the service without advertising for a monthly fee or consent to the processing of your data.",
	"it": "Utilizziamo i cookie e tecnologie simili per offrirti i contenuti del nostro sito. Puoi usare il servizio senza pubblicità per un piccolo abbonamento mensile oppure acconsentire al trattamento dei tuoi dati.",
	"sv": "Vi använder cookies och liknande teknik för att kunna erbjuda dig innehållet på vår webbplats. Du kan använda tjänsten utan annonser för en månadsavgift eller samtycka till behandlingen av dina uppgifter.",
	"fr": "Nous utilisons des cookies et des technologies similaires pour vous proposer les contenus de notre site. Vous pouvez utiliser le service sans publicité pour un abonnement mensuel ou consentir au traitement de vos données.",
	"es": "Utilizamos cookies y tecnologías similares para ofrecerle los contenidos de nuestro sitio. Usted puede usar el servicio sin publicidad por una cuota mensual o consentir el tratamiento de sus datos.",
	"pt": "Utilizamos cookies e tecnologias semelhantes para oferecer o conteúdo do nosso site. Você pode usar o serviço sem publicidade por uma mensalidade ou consentir com o processamento dos seus dados.",
	"nl": "Wij gebruiken cookies en vergelijkbare technologieën om u de inhoud van onze website aan te bieden. U kunt de dienst zonder advertenties gebruiken voor een maandelijks bedrag of instemmen met de verwerking van uw gegevens.",
	"da": "Vi bruger cookies og lignende teknologier for at kunne tilbyde dig indholdet på vores hjemmeside. Du kan bruge tjenesten uden annoncer for et månedligt beløb eller samtykke til behandlingen af dine oplysninger.",
}

func TestDetectBannerTexts(t *testing.T) {
	for want, text := range samples {
		got := Detect(text)
		if got.Lang != want {
			t.Errorf("want %s, got %s (conf %.2f) for %q", want, got.Lang, got.Confidence, text[:40])
		}
		if got.Confidence <= 0 || got.Confidence > 1 {
			t.Errorf("%s: confidence out of range: %g", want, got.Confidence)
		}
	}
}

func TestDetectShortInput(t *testing.T) {
	for _, text := range []string{"", "ok", "a b"} {
		if got := Detect(text); got.Lang != "und" {
			t.Errorf("Detect(%q) = %+v, want und", text, got)
		}
	}
}

func TestDetectNoStopwords(t *testing.T) {
	if got := Detect("zzz qqq xxx kwyjibo flurble snark"); got.Lang != "und" {
		t.Errorf("nonsense text detected as %s", got.Lang)
	}
}

func TestDetectDeterministic(t *testing.T) {
	text := samples["de"]
	first := Detect(text)
	for i := 0; i < 10; i++ {
		if got := Detect(text); got != first {
			t.Fatal("Detect is nondeterministic")
		}
	}
}

func TestLanguagesSorted(t *testing.T) {
	langs := Languages()
	if len(langs) < 9 {
		t.Fatalf("only %d languages", len(langs))
	}
	for i := 1; i < len(langs); i++ {
		if langs[i-1] >= langs[i] {
			t.Fatal("Languages not sorted")
		}
	}
}

func TestGermanVsDutchSeparation(t *testing.T) {
	// The de/nl pair is the hardest in our set; diacritics decide.
	de := Detect("Die Nutzer können ohne Werbung lesen, dafür zahlen sie monatlich einen Beitrag über unsere Website.")
	if de.Lang != "de" {
		t.Errorf("German misdetected as %s", de.Lang)
	}
	nl := Detect("De gebruikers kunnen zonder advertenties lezen, daarvoor betalen zij maandelijks een bedrag via onze website.")
	if nl.Lang != "nl" {
		t.Errorf("Dutch misdetected as %s", nl.Lang)
	}
}

// TestDiacriticHintsAreLatin1: Detect records the hints it meets in a
// latin1Set, which holds only runes below U+0100, and only on its
// non-ASCII path, so a hint outside non-ASCII Latin-1 would never fire.
func TestDiacriticHintsAreLatin1(t *testing.T) {
	for lang, runes := range diacriticHints {
		for _, r := range runes {
			if r < utf8.RuneSelf || r >= 0x100 {
				t.Errorf("%s: diacritic hint %q is outside non-ASCII Latin-1", lang, r)
			}
		}
	}
}
