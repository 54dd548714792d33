package smp

import (
	"strings"
	"testing"
)

func TestPlatforms(t *testing.T) {
	ps := Platforms()
	if len(ps) != 2 {
		t.Fatalf("platforms = %d", len(ps))
	}
	if ps[0].Name != "contentpass" || ps[1].Name != "freechoice" {
		t.Fatalf("order: %v %v", ps[0].Name, ps[1].Name)
	}
	for _, p := range ps {
		if p.MonthlyPriceEUR != 2.99 {
			t.Errorf("%s price = %g, paper says 2.99", p.Name, p.MonthlyPriceEUR)
		}
		if !strings.HasSuffix(p.Domain, ".example") {
			t.Errorf("%s domain %s outside reserved TLD", p.Name, p.Domain)
		}
		if !strings.HasPrefix(p.CDNDomain, "cdn.") {
			t.Errorf("%s CDN domain %s not CDN-hosted", p.Name, p.CDNDomain)
		}
	}
}

func TestPlatformByName(t *testing.T) {
	if _, ok := PlatformByName("contentpass"); !ok {
		t.Fatal("contentpass missing")
	}
	if _, ok := PlatformByName("quantcast"); ok {
		t.Fatal("unknown platform found")
	}
}

func TestRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterPartner("Spiegel.DE", "contentpass"); err != nil {
		t.Fatal(err)
	}
	p, ok := r.PlatformOf("spiegel.de")
	if !ok || p.Name != "contentpass" {
		t.Fatalf("PlatformOf = %v %v", p.Name, ok)
	}
	if _, ok := r.PlatformOf("unknown.de"); ok {
		t.Fatal("found unregistered site")
	}
}

func TestRegisterUnknownPlatform(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterPartner("a.de", "nosuch"); err == nil {
		t.Fatal("expected error")
	}
}

func TestPartnersSortedAndCounted(t *testing.T) {
	r := NewRegistry()
	for _, s := range []string{"c.de", "a.de", "b.de"} {
		if err := r.RegisterPartner(s, "contentpass"); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.RegisterPartner("x.de", "freechoice"); err != nil {
		t.Fatal(err)
	}
	got := r.Partners("contentpass")
	if len(got) != 3 || got[0] != "a.de" || got[2] != "c.de" {
		t.Fatalf("partners = %v", got)
	}
	if r.PartnerCount("contentpass") != 3 || r.PartnerCount("freechoice") != 1 {
		t.Fatal("counts wrong")
	}
}

func TestSubscribeAndValidate(t *testing.T) {
	r := NewRegistry()
	acct, err := r.Subscribe("contentpass", "crawler@measurement.example")
	if err != nil {
		t.Fatal(err)
	}
	if !r.ValidateToken("contentpass", acct.Token) {
		t.Fatal("valid token rejected")
	}
	if r.ValidateToken("freechoice", acct.Token) {
		t.Fatal("token valid on wrong platform")
	}
	if r.ValidateToken("contentpass", "forged") {
		t.Fatal("forged token accepted")
	}
}

func TestSubscribeDeterministicToken(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	a1, _ := r1.Subscribe("contentpass", "x@y.example")
	a2, _ := r2.Subscribe("contentpass", "x@y.example")
	if a1.Token != a2.Token {
		t.Fatal("tokens must be deterministic")
	}
	b, _ := r1.Subscribe("contentpass", "other@y.example")
	if b.Token == a1.Token {
		t.Fatal("different emails must get different tokens")
	}
}

func TestSubscribeUnknownPlatform(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Subscribe("nosuch", "a@b.c"); err == nil {
		t.Fatal("expected error")
	}
}
