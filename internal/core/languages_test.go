package core

import (
	"fmt"
	"testing"

	"cookiewalk/internal/dom"
)

// Per-language cookiewall texts matching the phrasing real sites (and
// the web farm) use. Each must classify as a cookiewall through the
// word corpus, the price combination, or both — pinning every language
// path of the §3 classifier independent of the farm.
var languageWalls = []struct {
	lang      string
	text      string
	accept    string
	subscribe string
	viaWords  bool // corpus word expected (else price-only)
}{
	{"de", "Mit Werbung kostenlos weiterlesen oder werbefrei im Abo für nur 2,99 € pro Monat. Wenn Sie akzeptieren, verarbeiten wir Ihre Daten mit Cookies.",
		"Alle akzeptieren", "Jetzt Abo abschließen", true},
	{"en", "Keep reading for free with advertising, or go ad-free for just $3.99 per month. Subscribe now. If you accept, we process your data using cookies.",
		"Accept all", "Subscribe now", true},
	{"it", "Continua a leggere gratis con la pubblicità oppure scegli l'abbonamento senza tracciamento per solo 1,99 € al mese. Se accetti, trattiamo i tuoi dati con i cookie.",
		"Accetta tutto", "Abbonati ora", true},
	{"fr", "Continuez à lire gratuitement avec la publicité ou devenez abonné sans suivi pour seulement 2,99 € par mois. Si vous acceptez, nous traitons vos données avec des cookies.",
		"Tout accepter", "S'abonner", true},
	{"es", "Siga leyendo gratis con publicidad o lea sin rastreo por solo 2,99 € al mes. Si acepta, procesamos sus datos con cookies.",
		"Aceptar todo", "Suscribirse ahora", false}, // price-only
	{"pt", "Continue lendo grátis com publicidade ou leia sem rastreamento por apenas 2,99 € por mês. Se você aceitar, processamos os seus dados com cookies.",
		"Aceitar tudo", "Assinar agora", false}, // price-only
	{"nl", "Lees gratis verder met advertenties of kies een abonnement zonder tracking voor slechts 2,99 € per maand. Als u accepteert, verwerken wij uw gegevens met cookies.",
		"Alles accepteren", "Abonneren", true},
	{"da", "Læs videre gratis med annoncer eller vælg et abonnement uden sporing for kun 34 kr pr. måned. Hvis du accepterer, behandler vi dine data med cookies.",
		"Accepter alle", "Abonner nu", true},
	{"sv", "Läs vidare gratis med annonser eller läs utan spårning för bara 34 kr per månad. Om du godkänner behandlar vi och våra partner dina uppgifter med cookies.",
		"Godkänn alla", "Prenumerera nu", false}, // price-only
}

func wallHTML(text, accept, subscribe string) string {
	return fmt.Sprintf(`<html><body>
<div class="consent-layer" role="dialog" style="position:fixed;top:20%%">
  <p>%s</p>
  <button id="acc">%s</button>
  <button id="sub">%s</button>
</div></body></html>`, text, accept, subscribe)
}

func TestAllLanguagesClassifyAsCookiewall(t *testing.T) {
	for _, c := range languageWalls {
		t.Run(c.lang, func(t *testing.T) {
			b := Detect(dom.Parse(wallHTML(c.text, c.accept, c.subscribe)))
			if b.Kind != KindCookiewall {
				t.Fatalf("kind = %v (text %q)", b.Kind, b.Element.DeepText())
			}
			if c.viaWords && len(b.MatchedWords) == 0 {
				t.Errorf("no corpus words matched in %q", c.text)
			}
			if !c.viaWords && b.PriceCount == 0 {
				t.Errorf("price-only language needs a detected price")
			}
			if b.AcceptButton == nil {
				t.Errorf("accept button %q not recognized", c.accept)
			}
			if b.SubscribeButton == nil {
				t.Errorf("subscribe button %q not recognized", c.subscribe)
			}
			if b.RejectButton != nil {
				t.Error("phantom reject button")
			}
			if b.MonthlyEUR < 1.5 || b.MonthlyEUR > 4.5 {
				t.Errorf("normalized price = %g", b.MonthlyEUR)
			}
		})
	}
}

// Regular banners in every language must NOT classify as cookiewalls.
var languageRegulars = map[string][2]string{
	"de": {"Wir und unsere Partner verwenden Cookies, um Inhalte zu personalisieren. Sie können Ihre Einwilligung jederzeit widerrufen.", "Alle akzeptieren|Ablehnen"},
	"en": {"We and our partners use cookies to personalise content and analyse traffic. You can withdraw your consent at any time.", "Accept all|Reject all"},
	"it": {"Noi e i nostri partner utilizziamo i cookie per personalizzare i contenuti. Puoi revocare il consenso in ogni momento.", "Accetta tutto|Rifiuta"},
	"fr": {"Nous et nos partenaires utilisons des cookies pour personnaliser les contenus. Vous pouvez retirer votre consentement.", "Tout accepter|Refuser"},
	"es": {"Nosotros y nuestros socios usamos cookies para personalizar el contenido. Puede retirar su consentimiento.", "Aceptar todo|Rechazar"},
	"pt": {"Nós e os nossos parceiros usamos cookies para personalizar o conteúdo. Você pode retirar o seu consentimento.", "Aceitar tudo|Recusar"},
	"nl": {"Wij en onze partners gebruiken cookies om inhoud te personaliseren. U kunt uw toestemming op elk moment intrekken.", "Alles accepteren|Weigeren"},
	"da": {"Vi og vores partnere bruger cookies til at tilpasse indholdet. Du kan til enhver tid trække dit samtykke tilbage.", "Accepter alle|Afvis"},
	"sv": {"Vi och våra partner använder cookies för att anpassa innehållet. Du kan när som helst återkalla ditt samtycke.", "Godkänn alla|Neka"},
	"af": {"Ons en ons vennote gebruik koekies om inhoud te verpersoonlik. Jy kan jou toestemming enige tyd terugtrek.", "Aanvaar alles|Weier"},
}

func TestAllLanguagesRegularNotMisclassified(t *testing.T) {
	for lang, pair := range languageRegulars {
		t.Run(lang, func(t *testing.T) {
			var accept, reject string
			for i, part := range []byte(pair[1]) {
				if part == '|' {
					accept, reject = pair[1][:i], pair[1][i+1:]
					break
				}
			}
			html := fmt.Sprintf(`<html><body>
<div class="cookie-banner" role="dialog" style="position:fixed;bottom:0">
  <p>%s</p><button id="a">%s</button><button id="r">%s</button>
</div></body></html>`, pair[0], accept, reject)
			b := Detect(dom.Parse(html))
			if b.Kind != KindRegular {
				t.Fatalf("kind = %v, words=%v prices=%d", b.Kind, b.MatchedWords, b.PriceCount)
			}
			if b.AcceptButton == nil || b.RejectButton == nil {
				t.Errorf("buttons not recognized: accept=%v reject=%v",
					b.AcceptButton != nil, b.RejectButton != nil)
			}
		})
	}
}
