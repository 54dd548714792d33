package webfarm

import (
	"net/http"
	"sync"

	"cookiewalk/internal/strarena"
	"cookiewalk/internal/xrand"
)

// renderCache memoizes rendered documents and tracker replies. Page,
// banner-fragment and banner-document renders are pure functions of a
// small key — the site, the consent state, whether the banner is shown
// to this visitor, and the per-visit jitter label when tracker embeds
// are on the page — so a landscape crawl that visits every site from
// eight vantage points re-renders each distinct page once instead of
// eight times. The cache stores the exact rendered string, which makes
// cached and uncached output byte-identical by construction.
//
// A tracker or benign-host pixel is a pure function of (host kind,
// site, n, o) too: its entry holds the constant pixel body and the
// reply header with the n Set-Cookie values, built once and shared by
// every repetition that embeds the same tracker chunk.
//
// Each entry also carries the render's content fingerprint (a stable
// hash of the body bytes), computed once when the entry is stored.
// The transport hands that fingerprint to the emulated browser so the
// analysis layer can memoize per distinct page without ever hashing a
// cached body again; plain HTTP clients recompute the identical hash
// from the bytes they read (see render.fp).
//
// The map is sharded to keep worker contention negligible and bounded
// per shard: a shard that grows past renderShardMax entries is simply
// reset (the next render repopulates it), so memory stays bounded
// without any eviction bookkeeping that could affect results.
//
// A miss writes its strings — the rendered body, a tracker reply's
// Set-Cookie values and its key's site — into its shard's arena (see
// shardArena), so a miss costs a share of a chunk instead of an
// allocation per string. Bodies and header values are immutable and
// never recycled: a reply may outlive its entry (net/http may keep a
// request's response, analysis may keep a slice of a page), and a
// chunk lives as long as any of its strings. Since each shard has its
// own arena, a shard reset leaves its chunks to the collector together.
type renderCache struct {
	shards [renderShards]renderShard
}

const (
	renderShards = 64
	// renderShardMax bounds entries per shard (≈260k entries across the
	// cache, comfortably above a full-scale study's working set: at seed
	// 42, scale 1, reps 5 the whole study stores about 109k entries, 14k
	// of them tracker replies, spread over 64 shards).
	renderShardMax = 4096
)

type renderShard struct {
	mu    sync.RWMutex
	m     map[renderKey]render
	arena shardArena
	// _ pads the shard to two full 64-byte cache lines (RWMutex 24 + map
	// header 8 + shardArena 72 = 104), so adjacent shards' locks never
	// false-share a line when different workers hammer neighbouring
	// shards.
	_ [24]byte
}

// shardArena holds the strings and Set-Cookie value slices of one
// shard's misses, under a lock of its own: a miss writes here without
// holding the map's lock, and a hit never touches it. Both fill lazily.
type shardArena struct {
	mu sync.Mutex
	strarena.Arena
	// vals is the rest of the slab tracker replies take their
	// Set-Cookie value slices from, each with capacity equal to length.
	vals []string
}

// valSlab is the number of Set-Cookie values a shard's slab holds (8
// KiB): a tracker reply sets at most 64, a study's replies 3 or fewer.
const valSlab = 512

// values returns a zeroed slice of n values from the slab, n <= 64.
// a.mu must be held.
func (a *shardArena) values(n int) []string {
	if len(a.vals) < n {
		a.vals = make([]string, valSlab)
	}
	v := a.vals[:n:n]
	a.vals = a.vals[n:]
	return v
}

// render is one cached rendered document.
type render struct {
	body string
	// fp is bodyHash(body), memoized here so repeat requests for a
	// cached render never rehash multi-kilobyte pages. It is a pure
	// function of the bytes: any reader of the same body — including a
	// real-listener HTTP client hashing what it downloaded — arrives at
	// the same value.
	fp uint64
	// header is the complete, SHARED response header of a page render
	// (Content-Type plus the state's first-party Set-Cookie values) or a
	// tracker reply (its n Set-Cookie values): like the body a pure
	// function of the render key, and served read-only by every reply
	// for the key. A tracker header is built once per entry. Page
	// headers are interned per farm (pageHeaderTable): every page entry
	// whose state sets the same first-party cookies holds the same
	// header map. nil for other renders.
	header http.Header
}

// bodyHash is the canonical content hash shared by the render cache,
// the replies' fingerprints and (via the same xrand.Hash64)
// the emulated browser's plain-RoundTripper fallback.
func bodyHash(body string) uint64 { return xrand.Hash64(body) }

// renderKind says which renderer produced an entry.
type renderKind uint8

const (
	kindPage renderKind = iota
	// kindFragment is a provider host's /cw.js fragment. A local
	// banner's fragment is written into its page, not cached alone.
	kindFragment
	kindBannerDoc
	// kindTracker and kindBenign are the pixel replies of tracker and
	// benign hosts (cookie prefixes tr and bc).
	kindTracker
	kindBenign
)

// Page-state flags folded into the key. Everything else a request
// carries (vantage point, bot UA, rejected consent) influences the
// render only through showBanner(), which flagBanner captures.
const (
	flagBanner uint8 = 1 << iota
	flagConsented
	flagSubscribed
)

type renderKey struct {
	domain string
	kind   renderKind
	flags  uint8
	// n and o are a tracker reply's cookie count and first cookie index
	// (0 for other kinds). They fill the padding after kind and flags,
	// so the key stays 40 bytes.
	n uint8
	o int32
	// visit is the jitter label, retained only when the render embeds
	// jittered tracker counts (consented/subscribed pages).
	visit string
}

func (c *renderCache) shard(k renderKey) *renderShard {
	h := fnv32(k.domain)
	if k.visit != "" {
		h = h*31 ^ fnv32(k.visit)
	}
	h ^= uint32(k.kind)<<8 ^ uint32(k.flags) ^ uint32(k.n)<<16 ^ uint32(k.o)
	return &c.shards[h%renderShards]
}

func (c *renderCache) get(k renderKey) (render, bool) {
	s := c.shard(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	return v, ok
}

// put stores a freshly rendered body (and, for page renders, its
// prebuilt response header) and returns the entry with its memoized
// content fingerprint.
func (c *renderCache) put(k renderKey, body string, header http.Header) render {
	v := render{body: body, fp: bodyHash(body), header: header}
	s := c.shard(k)
	s.mu.Lock()
	if s.m == nil || len(s.m) >= renderShardMax {
		s.m = make(map[renderKey]render, 64)
	}
	s.m[k] = v
	s.mu.Unlock()
	return v
}

// fnv32 is the FNV-1a hash, inlined to keep shard selection
// allocation-free.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
