// Package webfarm serves the synthetic web over HTTP: one handler
// routes every registered site domain, CMP/SMP provider host, tracker
// host and benign CDN host. Pages are rendered on demand from the
// synthweb registry — language-appropriate article text with category
// keywords, consent banners or cookiewalls in the site's configured
// embedding, tracker subresources after consent, and subscription
// flows for SMP partners.
//
// One routing function answers every request with a reply value.
// ServeHTTP copies it onto any http.ResponseWriter; the in-process
// RoundTripBody returns its fields unchanged, so a cached page round
// trip allocates nothing. A reply's header is SHARED — the render
// cache's page header or a package-level constant — and read-only: no
// caller may mutate it.
package webfarm

import (
	"bytes"
	"fmt"
	"strconv"

	"cookiewalk/internal/currency"
	"cookiewalk/internal/synthweb"
)

// langText bundles the per-language strings used on pages and banners.
type langText struct {
	// article sentences; %s slots take category keywords.
	intro string
	body1 string
	body2 string
	// regular banner.
	consentText string
	accept      string
	reject      string
	settings    string
	// cookiewall extras. walls must contain at least one corpus word
	// (abo, abonnent, abbonamento, abonne, abonné, ad-free, subscribe)
	// or rely on the price combination, as the real sites do.
	wallText  string // %s slot takes the formatted price phrase
	subscribe string
	monthWord string
	yearWord  string
}

var texts = map[string]langText{
	"de": {
		intro:       "Willkommen auf unserer Seite mit aktuellen Beiträgen über %s und %s für alle, die mehr wissen wollen.",
		body1:       "Wir berichten jeden Tag über %s, damit Sie mit unseren Artikeln immer auf dem neuesten Stand sind und nichts verpassen.",
		body2:       "Unsere Redaktion schreibt nicht nur über %s, sondern auch über viele weitere Themen, die unsere Leser im Alltag begleiten.",
		consentText: "Wir und unsere Partner verwenden Cookies und ähnliche Technologien, um Inhalte zu personalisieren und Zugriffe zu analysieren. Sie können Ihre Einwilligung jederzeit widerrufen.",
		accept:      "Alle akzeptieren",
		reject:      "Ablehnen",
		settings:    "Einstellungen verwalten",
		wallText:    "Mit Werbung kostenlos weiterlesen oder werbefrei im Abo für nur %s. Jetzt abonnieren und ganz ohne Tracking lesen. Wenn Sie akzeptieren, verarbeiten wir und unsere Partner Ihre Daten mit Cookies.",
		subscribe:   "Jetzt Abo abschließen",
		monthWord:   "pro Monat",
		yearWord:    "pro Jahr",
	},
	"en": {
		intro:       "Welcome to our site with the latest stories about %s and %s for all of you who want to know more.",
		body1:       "Every day we report about %s so that you are always up to date with our articles and never miss the news that matters.",
		body2:       "Our team writes not only about %s but also about many more topics that our readers care about in their daily lives.",
		consentText: "We and our partners use cookies and similar technologies to personalise content and analyse traffic. You can withdraw your consent at any time.",
		accept:      "Accept all",
		reject:      "Reject all",
		settings:    "Manage settings",
		wallText:    "Keep reading for free with advertising, or go ad-free for just %s. Subscribe now for tracking-free access. If you accept, we and our partners will process your data using cookies.",
		subscribe:   "Subscribe now",
		monthWord:   "per month",
		yearWord:    "per year",
	},
	"it": {
		intro:       "Benvenuti sul nostro sito con gli articoli più recenti su %s e %s per tutti quelli che vogliono saperne di più.",
		body1:       "Ogni giorno scriviamo di %s perché con i nostri articoli siate sempre informati e non vi perdiate le notizie che contano.",
		body2:       "La nostra redazione non scrive solo di %s ma anche di molti altri temi che accompagnano i nostri lettori.",
		consentText: "Noi e i nostri partner utilizziamo i cookie per personalizzare i contenuti e analizzare il traffico. Puoi revocare il consenso in ogni momento.",
		accept:      "Accetta tutto",
		reject:      "Rifiuta",
		settings:    "Gestisci impostazioni",
		wallText:    "Continua a leggere gratis con la pubblicità oppure scegli l'abbonamento senza tracciamento per solo %s. Se accetti, noi e i nostri partner trattiamo i tuoi dati con i cookie.",
		subscribe:   "Abbonati ora",
		monthWord:   "al mese",
		yearWord:    "all'anno",
	},
	"sv": {
		intro:       "Välkommen till vår sida med de senaste artiklarna om %s och %s för alla som vill veta mer.",
		body1:       "Varje dag skriver vi om %s så att du alltid är uppdaterad med våra artiklar och inte missar det som är viktigt.",
		body2:       "Vår redaktion skriver inte bara om %s utan också om många andra ämnen som våra läsare bryr sig om.",
		consentText: "Vi och våra partner använder cookies för att anpassa innehållet och analysera trafiken. Du kan när som helst återkalla ditt samtycke.",
		accept:      "Godkänn alla",
		reject:      "Neka",
		settings:    "Hantera inställningar",
		wallText:    "Läs vidare gratis med annonser eller välj att läsa utan spårning för bara %s. Om du godkänner behandlar vi och våra partner dina uppgifter med cookies.",
		subscribe:   "Prenumerera nu",
		monthWord:   "per månad",
		yearWord:    "per år",
	},
	"fr": {
		intro:       "Bienvenue sur notre site avec les derniers articles sur %s et %s pour tous ceux qui veulent en savoir plus.",
		body1:       "Chaque jour nous écrivons sur %s pour que vous soyez toujours informés avec nos articles et ne manquiez pas les nouvelles qui comptent.",
		body2:       "Notre rédaction n'écrit pas seulement sur %s mais aussi sur beaucoup d'autres sujets qui accompagnent nos lecteurs.",
		consentText: "Nous et nos partenaires utilisons des cookies pour personnaliser les contenus et analyser le trafic. Vous pouvez retirer votre consentement à tout moment.",
		accept:      "Tout accepter",
		reject:      "Refuser",
		settings:    "Gérer les paramètres",
		wallText:    "Continuez à lire gratuitement avec la publicité ou devenez abonné sans suivi pour seulement %s. Si vous acceptez, nous et nos partenaires traitons vos données avec des cookies.",
		subscribe:   "S'abonner",
		monthWord:   "par mois",
		yearWord:    "par an",
	},
	"es": {
		intro:       "Bienvenido a nuestro sitio con los últimos artículos sobre %s y %s para todos los que quieren saber más.",
		body1:       "Cada día escribimos sobre %s para que usted esté siempre informado con nuestros artículos y no se pierda las noticias importantes.",
		body2:       "Nuestra redacción no escribe solo sobre %s sino también sobre muchos otros temas que acompañan a nuestros lectores.",
		consentText: "Nosotros y nuestros socios usamos cookies para personalizar el contenido y analizar el tráfico. Puede retirar su consentimiento en cualquier momento.",
		accept:      "Aceptar todo",
		reject:      "Rechazar",
		settings:    "Gestionar ajustes",
		wallText:    "Siga leyendo gratis con publicidad o lea sin rastreo por solo %s. Si acepta, nosotros y nuestros socios procesamos sus datos con cookies.",
		subscribe:   "Suscribirse ahora",
		monthWord:   "al mes",
		yearWord:    "al año",
	},
	"pt": {
		intro:       "Bem-vindo ao nosso site com os artigos mais recentes sobre %s e %s para todos que querem saber mais.",
		body1:       "Todos os dias escrevemos sobre %s para que você esteja sempre informado com os nossos artigos e não perca as notícias importantes.",
		body2:       "A nossa redação não escreve apenas sobre %s mas também sobre muitos outros temas que acompanham os nossos leitores.",
		consentText: "Nós e os nossos parceiros usamos cookies para personalizar o conteúdo e analisar o tráfego. Você pode retirar o seu consentimento a qualquer momento.",
		accept:      "Aceitar tudo",
		reject:      "Recusar",
		settings:    "Gerir definições",
		wallText:    "Continue lendo grátis com publicidade ou leia sem rastreamento por apenas %s. Se você aceitar, nós e os nossos parceiros processamos os seus dados com cookies.",
		subscribe:   "Assinar agora",
		monthWord:   "por mês",
		yearWord:    "por ano",
	},
	"nl": {
		intro:       "Welkom op onze site met de nieuwste artikelen over %s en %s voor iedereen die meer wil weten.",
		body1:       "Elke dag schrijven wij over %s zodat u met onze artikelen altijd op de hoogte bent en niets mist van het nieuws.",
		body2:       "Onze redactie schrijft niet alleen over %s maar ook over veel andere onderwerpen die onze lezers bezighouden.",
		consentText: "Wij en onze partners gebruiken cookies om inhoud te personaliseren en verkeer te analyseren. U kunt uw toestemming op elk moment intrekken.",
		accept:      "Alles accepteren",
		reject:      "Weigeren",
		settings:    "Instellingen beheren",
		wallText:    "Lees gratis verder met advertenties of kies een abonnement zonder tracking voor slechts %s. Als u accepteert, verwerken wij en onze partners uw gegevens met cookies.",
		subscribe:   "Abonneren",
		monthWord:   "per maand",
		yearWord:    "per jaar",
	},
	"da": {
		intro:       "Velkommen til vores side med de nyeste artikler om %s og %s for alle der vil vide mere.",
		body1:       "Hver dag skriver vi om %s så du altid er opdateret med vores artikler og ikke går glip af de vigtige nyheder.",
		body2:       "Vores redaktion skriver ikke kun om %s men også om mange andre emner som vores læsere har brug for.",
		consentText: "Vi og vores partnere bruger cookies til at tilpasse indholdet og analysere trafikken. Du kan til enhver tid trække dit samtykke tilbage.",
		accept:      "Accepter alle",
		reject:      "Afvis",
		settings:    "Administrer indstillinger",
		wallText:    "Læs videre gratis med annoncer eller vælg et abonnement uden sporing for kun %s. Hvis du accepterer, behandler vi og vores partnere dine data med cookies.",
		subscribe:   "Abonner nu",
		monthWord:   "pr. måned",
		yearWord:    "pr. år",
	},
	"af": {
		intro:       "Welkom op ons webwerf met die nuutste artikels oor %s en %s vir almal wat meer wil weet.",
		body1:       "Elke dag skryf ons oor %s sodat jy altyd op hoogte is met ons artikels en nie die belangrike nuus mis nie.",
		body2:       "Ons redaksie skryf nie net oor %s nie maar ook oor baie ander onderwerpe wat ons lesers raak.",
		consentText: "Ons en ons vennote gebruik koekies om inhoud te verpersoonlik en verkeer te ontleed. Jy kan jou toestemming enige tyd terugtrek.",
		accept:      "Aanvaar alles",
		reject:      "Weier",
		settings:    "Bestuur instellings",
		wallText:    "Lees gratis verder met advertensies of kies ad-free toegang vir net %s. As jy aanvaar, verwerk ons en ons vennote jou data met koekies.",
		subscribe:   "Teken nou in",
		monthWord:   "per maand",
		yearWord:    "per jaar",
	},
}

// textFor returns the language bundle, falling back to English.
func textFor(lang string) langText {
	if t, ok := texts[lang]; ok {
		return t
	}
	return texts["en"]
}

// BannerTexts exposes each language's banner strings (consent text,
// wall text with a sample price, accept/reject/subscribe labels) so
// integration tests can verify the farm's i18n stays detectable by the
// classifier.
func BannerTexts() map[string][5]string {
	out := make(map[string][5]string, len(texts))
	for lang, t := range texts {
		out[lang] = [5]string{
			t.consentText,
			fmt.Sprintf(t.wallText, "2,99 € "+t.monthWord),
			t.accept,
			t.reject,
			t.subscribe,
		}
	}
	return out
}

// decimalCommaLangs write "2,99" instead of "2.99".
var decimalCommaLangs = map[string]bool{
	"de": true, "it": true, "sv": true, "fr": true, "es": true,
	"pt": true, "nl": true, "da": true, "af": true,
}

// appendPricePhrase appends the site's display price the way its
// banner shows it, e.g. "2,99 € pro Monat", "A$4 per month",
// "34 kr per månad", "35,88 € pro Jahr".
func appendPricePhrase(dst []byte, s *synthweb.Site) []byte {
	t := textFor(s.Language)
	period := t.monthWord
	if s.PricePeriod == currency.PeriodYear {
		period = t.yearWord
	}
	dst = appendAmount(dst, s.PriceAmount, s.PriceCurrency, s.Language)
	return append(append(dst, ' '), period...)
}

// appendAmount appends an amount with its currency symbol, e.g.
// "2,99 €", "A$4", "34 kr".
func appendAmount(dst []byte, amount float64, code, lang string) []byte {
	affix, ok := currencyAffixes[code]
	if !ok {
		affix[1] = " " + code
	}
	dst = append(dst, affix[0]...)
	if amount == float64(int64(amount)) {
		dst = strconv.AppendInt(dst, int64(amount), 10)
	} else {
		num := len(dst)
		dst = strconv.AppendFloat(dst, amount, 'f', 2, 64)
		if decimalCommaLangs[lang] {
			if i := bytes.IndexByte(dst[num:], '.'); i >= 0 {
				dst[num+i] = ','
			}
		}
	}
	return append(dst, affix[1]...)
}

// currencyAffixes holds what appendAmount writes before and after the
// number; other codes follow it as " <code>".
var currencyAffixes = map[string][2]string{
	"EUR": {"", " €"}, "USD": {"$", ""}, "GBP": {"£", ""}, "AUD": {"A$", ""},
	"SEK": {"", " kr"}, "BRL": {"R$", ""}, "INR": {"Rs. ", ""},
	"CHF": {"CHF ", ""}, "ZAR": {"R", ""}, "CNY": {"¥", ""},
}

// decoyPromo is the newsletter plug that turns five regular banners
// into the detector's false positives (§3's 98.2% precision).
var decoyPromo = map[string]string{
	"de": "PS: Unser werbefreier Newsletter im Abo kostet nur 1,99 € im Monat — jetzt abonnieren!",
}

func decoyPromoFor(lang string) string {
	if p, ok := decoyPromo[lang]; ok {
		return p
	}
	return decoyPromo["de"]
}
