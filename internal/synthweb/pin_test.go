package synthweb

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"testing"
)

// universeDigest hashes a canonical dump of a registry: every Site
// field in Sites() order, then TargetList() and the SMP partner
// counts. The dump names toplist countries in sorted order and prints
// floats in their shortest exact form, so it does not depend on how a
// Site stores its fields, only on their values.
func universeDigest(r *Registry) string {
	h := sha256.New()
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, s := range r.Sites() {
		var lists []string
		for _, cc := range s.Lists.Countries() {
			b, _ := s.OnList(cc)
			lists = append(lists, cc+"="+strconv.Itoa(b))
		}
		fmt.Fprintf(h, "%s|%s|%s|%s|%d|%d|%s/%s/%t/%t|%s|%s|%d|%s|%q|%q|%t|%+v|%t|%t|%t|%t\n",
			s.Domain, s.TLD, s.Language, s.Category, s.Banner, s.Embedding,
			s.Provider.Name, s.Provider.Host, s.Provider.Listed, s.Provider.SMP,
			f(s.PriceAmount), s.PriceCurrency, s.PricePeriod, f(s.MonthlyEUR),
			s.ShowToVPs, lists, s.Reachable, s.Cookies,
			s.Decoy, s.BotSensitive, s.AntiAdblock, s.ScrollLock)
	}
	io.WriteString(h, "targets\n")
	for _, d := range r.TargetList() {
		io.WriteString(h, d+"\n")
	}
	fmt.Fprintf(h, "smp contentpass=%d freechoice=%d\n",
		r.SMP.PartnerCount("contentpass"), r.SMP.PartnerCount("freechoice"))
	return hex.EncodeToString(h.Sum(nil))
}

// TestUniversePin pins the generated universe byte for byte. The same
// seed must give the same universe, and the order of RNG draws is part
// of that contract: an edit to the generator that reorders, adds or
// drops a draw changes these digests. Update them only for a deliberate
// change to the universe, never to make an optimisation pass.
func TestUniversePin(t *testing.T) {
	cases := []struct {
		seed  uint64
		scale float64
		want  string
	}{
		{42, 1, "73af253f351a2e423ea14c6e19aecc189db50ce767acf9b0d4abd60b6684745c"},
		{7, 0.02, "c3c225cd4c932f7d230c0e2dd91d69eefd44c294596db150d2844cf34bb887b9"},
	}
	for _, c := range cases {
		r := fullRegistry
		if c.seed != 42 || c.scale != 1 {
			r = Generate(Config{Seed: c.seed, FillerScale: c.scale})
		}
		if got := universeDigest(r); got != c.want {
			t.Errorf("seed %d scale %g: universe digest %s, want %s", c.seed, c.scale, got, c.want)
		}
	}
}
