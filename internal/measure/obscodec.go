package measure

import (
	"encoding/binary"
	"fmt"
	"math"

	"cookiewalk/internal/categorize"
	"cookiewalk/internal/core"
	"cookiewalk/internal/dom"
	"cookiewalk/internal/langdetect"
	"cookiewalk/internal/synthweb"
	"cookiewalk/internal/vantage"
)

// ObservationCodec serializes Observations for the campaign checkpoint
// journal (campaign.Codec). The encoding is a compact, deterministic
// binary layout — varint lengths, little-endian fixed words — that
// round-trips every field exactly, so a resumed campaign's sink
// observes byte-identical results.
//
// Decoding also re-seeds the process-wide analysis memo: a replayed
// observation carries its page Fingerprint and its full VP-independent
// analysis, so the fresh visits of a resumed crawl (the other vantage
// points of a half-finished landscape) hit the memo exactly as they
// would have in the uninterrupted run, instead of re-parsing pages the
// journal already analyzed.
type ObservationCodec struct {
	// Reg, when set, lets decoding share the registry's copy of a
	// known domain instead of allocating one per record. Every other
	// closed-set field (vantage point, language, category, shadow
	// mode) resolves through its package's own table either way, and
	// bytes outside those sets are copied, so decoding is exact with or
	// without Reg.
	Reg *synthweb.Registry
}

// obsCodecVersion guards the layout; bump on any field change so stale
// journals fall back to fresh visits instead of mis-decoding.
const obsCodecVersion = 1

// Append implements campaign.Codec; v is a *Observation.
func (ObservationCodec) Append(dst []byte, v any) ([]byte, error) {
	o, ok := v.(*Observation)
	if !ok {
		return dst, typeError("ObservationCodec", v)
	}
	return appendObservation(dst, o), nil
}

// DecodeInto implements campaign.Codec; v is a *Observation, which is
// overwritten whatever it held.
func (c ObservationCodec) DecodeInto(data []byte, v any) error {
	o, ok := v.(*Observation)
	if !ok {
		return typeError("ObservationCodec", v)
	}
	return c.decode(data, o)
}

// Encode returns the encoding of the Observation v in a new buffer. It
// is Append for callers that hold an Observation value (the codec
// probe of bench/cwbench); the campaign journal uses Append.
func (ObservationCodec) Encode(v any) ([]byte, error) {
	o, ok := v.(Observation)
	if !ok {
		return nil, typeError("ObservationCodec", v)
	}
	// Pre-size: strings plus ~6 bytes of framing each, plus fixed words.
	n := 32 + len(o.Domain) + len(o.VP) + len(o.Err) + len(o.ShadowMode) + len(o.Language) + len(o.Category)
	for _, w := range o.MatchedWords {
		n += len(w) + 2
	}
	return appendObservation(make([]byte, 0, n), &o), nil
}

// Decode returns the Observation data encodes. It is DecodeInto for
// callers that want a value back (the codec probe of bench/cwbench);
// the campaign journal uses DecodeInto.
func (c ObservationCodec) Decode(data []byte) (any, error) {
	var o Observation
	if err := c.decode(data, &o); err != nil {
		return nil, err
	}
	return o, nil
}

// appendObservation appends the encoding of *o to buf.
func appendObservation(buf []byte, o *Observation) []byte {
	buf = append(buf, obsCodecVersion)
	buf = binary.LittleEndian.AppendUint64(buf, o.Fingerprint)
	buf = appendStr(buf, o.Domain)
	buf = appendStr(buf, o.VP)
	buf = appendStr(buf, o.Err)
	buf = binary.AppendUvarint(buf, uint64(o.Kind))
	buf = binary.AppendUvarint(buf, uint64(o.Source))
	buf = appendStr(buf, o.ShadowMode)
	buf = append(buf, packFlags(o))
	buf = binary.AppendUvarint(buf, uint64(len(o.MatchedWords)))
	for _, w := range o.MatchedWords {
		buf = appendStr(buf, w)
	}
	buf = binary.AppendUvarint(buf, uint64(o.PriceCount))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.MonthlyEUR))
	buf = appendStr(buf, o.Language)
	buf = appendStr(buf, o.Category)
	return buf
}

// decode overwrites *o with the observation data encodes; on error *o
// is left partly decoded (the engine resets its slot).
func (c ObservationCodec) decode(data []byte, o *Observation) error {
	*o = Observation{}
	d := obsDecoder{data: data}
	if v := d.byte(); v != obsCodecVersion {
		return fmt.Errorf("measure: ObservationCodec: version %d, want %d", v, obsCodecVersion)
	}
	o.Fingerprint = d.u64()
	o.Domain = d.known(c.knownDomain)
	o.VP = d.known(vantage.KnownName)
	o.Err = d.str()
	o.Kind = core.Kind(d.uvarint())
	o.Source = core.Source(d.uvarint())
	o.ShadowMode = d.known(knownShadowMode)
	unpackFlags(o, d.byte())
	if n := d.uvarint(); n > 0 {
		if n > uint64(len(d.data)) {
			return fmt.Errorf("measure: ObservationCodec: %d matched words in %d bytes", n, len(d.data))
		}
		words := make([]string, n)
		for i := range words {
			words[i] = d.str()
		}
		o.MatchedWords = words
	}
	o.PriceCount = int(d.uvarint())
	o.MonthlyEUR = math.Float64frombits(d.u64())
	o.Language = d.known(langdetect.KnownCode)
	o.Category = d.known(categorize.KnownCategory)
	if d.err != nil {
		return d.err
	}
	if len(d.data) != 0 {
		return fmt.Errorf("measure: ObservationCodec: %d trailing bytes", len(d.data))
	}
	// Re-seed the analysis memo from the replayed observation, so the
	// resumed campaign's FRESH visits reuse it (the whole point of
	// journaling the fingerprint alongside the analysis).
	if o.Err == "" && o.Fingerprint != 0 {
		analyses.seed(memoKey(c.Reg, o.Fingerprint), analysisOf(o))
	}
	return nil
}

// knownDomain resolves a domain through the registry, when there is
// one.
func (c ObservationCodec) knownDomain(b []byte) (string, bool) {
	if c.Reg == nil {
		return "", false
	}
	return c.Reg.KnownDomain(b)
}

// knownShadowMode resolves the two shadow-root modes dom records.
func knownShadowMode(b []byte) (string, bool) {
	switch string(b) {
	case string(dom.ShadowOpen):
		return string(dom.ShadowOpen), true
	case string(dom.ShadowClosed):
		return string(dom.ShadowClosed), true
	}
	return "", false
}

// packFlags folds the observation's booleans into one byte.
func packFlags(o *Observation) byte {
	var f byte
	for i, b := range []bool{o.HasAccept, o.HasReject, o.HasSub, o.AdblockPlea, o.ScrollLocked} {
		if b {
			f |= 1 << i
		}
	}
	return f
}

func unpackFlags(o *Observation, f byte) {
	o.HasAccept = f&1 != 0
	o.HasReject = f&2 != 0
	o.HasSub = f&4 != 0
	o.AdblockPlea = f&8 != 0
	o.ScrollLocked = f&16 != 0
}

// analysisOf reconstructs the VP-independent analysis from a decoded
// observation — the exact inverse of Observation.setAnalysis. The
// MatchedWords slice is the decoder's exact-capacity copy, safe to
// share with the memo (nothing else aliases it).
func analysisOf(o *Observation) core.Analysis {
	return core.Analysis{
		Kind:         o.Kind,
		Source:       o.Source,
		ShadowMode:   o.ShadowMode,
		HasAccept:    o.HasAccept,
		HasReject:    o.HasReject,
		HasSub:       o.HasSub,
		MatchedWords: o.MatchedWords,
		PriceCount:   o.PriceCount,
		MonthlyEUR:   o.MonthlyEUR,
		Language:     o.Language,
		Category:     o.Category,
		AdblockPlea:  o.AdblockPlea,
		ScrollLocked: o.ScrollLocked,
	}
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// obsDecoder is a cursor over an encoded observation; the first
// malformed read latches err and zero-values every later read.
type obsDecoder struct {
	data []byte
	err  error
}

func (d *obsDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("measure: ObservationCodec: truncated record")
	}
	d.data = nil
}

func (d *obsDecoder) byte() byte {
	if len(d.data) < 1 {
		d.fail()
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *obsDecoder) u64() uint64 {
	if len(d.data) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data)
	d.data = d.data[8:]
	return v
}

// uvarint reads a minimally encoded uvarint, the only form
// binary.AppendUvarint writes: a longer form of the same value (one
// that ends in a zero byte) is malformed.
func (d *obsDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.data)
	if n <= 0 || n > 1 && d.data[n-1] == 0 {
		d.fail()
		return 0
	}
	d.data = d.data[n:]
	return v
}

// bytes returns the next length-prefixed field, aliasing the input.
func (d *obsDecoder) bytes() []byte {
	n := d.uvarint()
	if n > uint64(len(d.data)) {
		d.fail()
		return nil
	}
	b := d.data[:n]
	d.data = d.data[n:]
	return b
}

// str returns the next length-prefixed field as a new string.
func (d *obsDecoder) str() string {
	return string(d.bytes())
}

// known returns the next length-prefixed field as the string lookup
// resolves it to, sharing that string instead of copying the bytes,
// and falls back to a copy for bytes lookup does not know.
func (d *obsDecoder) known(lookup func([]byte) (string, bool)) string {
	b := d.bytes()
	if s, ok := lookup(b); ok {
		return s
	}
	return string(b)
}
