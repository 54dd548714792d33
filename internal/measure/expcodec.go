package measure

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Checkpoint codecs for the non-landscape experiment campaigns
// (campaign.Codec implementations). Each campaign journals exactly the
// value its sink aggregates — never a full Observation when the
// experiment only needs a verdict — so replays can never poison the
// process-wide analysis memo with synthesized results (the bypass
// experiment, for instance, overrides Observation.Kind with its
// across-repetitions verdict, which must not be seeded back as a page
// analysis). Every codec carries a distinct leading tag byte, so a
// journal wired to the wrong campaign type fails decoding and degrades
// to fresh visits instead of mis-decoding.

// SiteCookiesCodec serializes SiteCookies for the cookie-measurement
// campaigns (Figures 4 and 5).
type SiteCookiesCodec struct{}

// Codec tag bytes ("versions": bump on any layout change so stale
// journals fall back to fresh visits).
const (
	siteCookiesTag = 0x51
	bypassTag      = 0x52
	ablationTag    = 0x53
	autoRejectTag  = 0x54
	botCheckTag    = 0x55
	revocationTag  = 0x56
)

// Append implements campaign.Codec; v is a *SiteCookies.
func (SiteCookiesCodec) Append(dst []byte, v any) ([]byte, error) {
	sc, ok := v.(*SiteCookies)
	if !ok {
		return dst, typeError("SiteCookiesCodec", v)
	}
	dst = append(dst, siteCookiesTag)
	dst = appendStr(dst, sc.Domain)
	dst = appendStr(dst, sc.Err)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(sc.Tally.FirstParty))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(sc.Tally.ThirdParty))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(sc.Tally.Tracking))
	return dst, nil
}

// DecodeInto implements campaign.Codec; v is a *SiteCookies.
func (SiteCookiesCodec) DecodeInto(data []byte, v any) error {
	out, ok := v.(*SiteCookies)
	if !ok {
		return typeError("SiteCookiesCodec", v)
	}
	d := obsDecoder{data: data}
	if tag := d.byte(); tag != siteCookiesTag {
		return fmt.Errorf("measure: SiteCookiesCodec: tag %#x, want %#x", tag, siteCookiesTag)
	}
	var sc SiteCookies
	sc.Domain = d.str()
	sc.Err = d.str()
	sc.Tally.FirstParty = math.Float64frombits(d.u64())
	sc.Tally.ThirdParty = math.Float64frombits(d.u64())
	sc.Tally.Tracking = math.Float64frombits(d.u64())
	if d.err != nil {
		return d.err
	}
	if len(d.data) != 0 {
		return fmt.Errorf("measure: SiteCookiesCodec: %d trailing bytes", len(d.data))
	}
	*out = sc
	return nil
}

// typeError reports a value of the wrong type handed to a codec.
func typeError(codec string, v any) error {
	return fmt.Errorf("measure: %s: unexpected type %T", codec, v)
}

// flagsCodec is the shared shape of the small verdict codecs: a tag
// byte plus one flags byte, plus a domain for the campaigns whose sinks
// report per-domain lists. pack and unpack convert between a verdict R
// and its (flags, domain) pair. DecodeInto refuses flags above max and
// a domain the codec does not carry, so every record it accepts is one
// Append could have written: it re-encodes to the same bytes.
type flagsCodec[R any] struct {
	name   string
	tag    byte
	max    byte // the largest flags value R defines
	domain bool // whether R carries a domain
	pack   func(*R) (flags byte, domain string)
	unpack func(flags byte, domain string) R
}

// Append implements campaign.Codec; v is a *R.
func (c flagsCodec[R]) Append(dst []byte, v any) ([]byte, error) {
	r, ok := v.(*R)
	if !ok {
		return dst, typeError(c.name, v)
	}
	flags, domain := c.pack(r)
	dst = append(dst, c.tag, flags)
	return appendStr(dst, domain), nil
}

// DecodeInto implements campaign.Codec; v is a *R.
func (c flagsCodec[R]) DecodeInto(data []byte, v any) error {
	out, ok := v.(*R)
	if !ok {
		return typeError(c.name, v)
	}
	d := obsDecoder{data: data}
	if got := d.byte(); got != c.tag {
		return fmt.Errorf("measure: %s: tag %#x, want %#x", c.name, got, c.tag)
	}
	flags := d.byte()
	domain := d.str()
	if d.err != nil {
		return d.err
	}
	if len(d.data) != 0 {
		return fmt.Errorf("measure: %s: %d trailing bytes", c.name, len(d.data))
	}
	if flags > c.max {
		return fmt.Errorf("measure: %s: flags %#x above %#x", c.name, flags, c.max)
	}
	if domain != "" && !c.domain {
		return fmt.Errorf("measure: %s: unexpected domain %q", c.name, domain)
	}
	*out = c.unpack(flags, domain)
	return nil
}

func packBools(bs ...bool) byte {
	var f byte
	for i, b := range bs {
		if b {
			f |= 1 << i
		}
	}
	return f
}

// bypassCodec journals the §4.5 per-domain verdict (wall survived the
// blocker across repetitions, plus the two quirk flags).
func bypassCodec() flagsCodec[bypassOutcome] {
	return flagsCodec[bypassOutcome]{name: "bypassCodec", tag: bypassTag, max: 7, domain: true,
		pack: func(o *bypassOutcome) (byte, string) {
			return packBools(o.Wall, o.AdblockPlea, o.ScrollLocked), o.Domain
		},
		unpack: func(f byte, domain string) bypassOutcome {
			return bypassOutcome{Domain: domain, Wall: f&1 != 0, AdblockPlea: f&2 != 0, ScrollLocked: f&4 != 0}
		},
	}
}

// ablationCodec journals the four detector-configuration verdicts of
// one ablation visit.
func ablationCodec() flagsCodec[ablationCounts] {
	return flagsCodec[ablationCounts]{name: "ablationCodec", tag: ablationTag, max: 15,
		pack: func(c *ablationCounts) (byte, string) {
			return packBools(c.full, c.noShadow, c.noFrames, c.mainOnly), ""
		},
		unpack: func(f byte, _ string) ablationCounts {
			return ablationCounts{full: f&1 != 0, noShadow: f&2 != 0, noFrames: f&4 != 0, mainOnly: f&8 != 0}
		},
	}
}

// autoRejectCodec journals one auto-reject attempt's outcome.
func autoRejectCodec() flagsCodec[rejectOutcome] {
	return flagsCodec[rejectOutcome]{name: "autoRejectCodec", tag: autoRejectTag, max: byte(outFailed),
		pack:   func(o *rejectOutcome) (byte, string) { return byte(*o), "" },
		unpack: func(f byte, _ string) rejectOutcome { return rejectOutcome(f) },
	}
}

// botCheckCodec journals one domain's banner visibility under the two
// crawler identities.
func botCheckCodec() flagsCodec[botPair] {
	return flagsCodec[botPair]{name: "botCheckCodec", tag: botCheckTag, max: 3,
		pack: func(p *botPair) (byte, string) { return packBools(p.mitigated, p.naive), "" },
		unpack: func(f byte, _ string) botPair {
			return botPair{mitigated: f&1 != 0, naive: f&2 != 0}
		},
	}
}

// revocationCodec journals one domain's accept/revisit/delete/revisit
// outcome.
func revocationCodec() flagsCodec[revOutcome] {
	return flagsCodec[revOutcome]{name: "revocationCodec", tag: revocationTag, max: 15,
		pack: func(o *revOutcome) (byte, string) {
			return packBools(o.tested, o.gone, o.persisted, o.back), ""
		},
		unpack: func(f byte, _ string) revOutcome {
			return revOutcome{tested: f&1 != 0, gone: f&2 != 0, persisted: f&4 != 0, back: f&8 != 0}
		},
	}
}
