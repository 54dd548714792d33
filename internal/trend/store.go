package trend

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"cookiewalk/internal/framelog"
	"cookiewalk/internal/measure"
)

// The time-indexed round store. One append-only internal/framelog
// file (rounds.cwt, magic "cwts1\n") holds every completed round's
// Record as a frame, in round order; framelog owns the frame format and
// the crash-safety argument. The payload is the Record's JSON — rounds
// are few (one per schedule tick, not one per visit), so a
// self-describing encoding wins over the campaign journals'
// byte-pinched binary.
//
// Every append is fsynced before Append returns, so a round is either
// fully in the store or not in it at all; a torn tail from a mid-write
// crash is truncated away on Open, and the round whose frame was torn
// simply re-runs (its crawl checkpoint journals make the re-run cheap).
// A frame that decodes but breaks the gap-free round sequence ends the
// valid prefix too (it can only come from a foreign or corrupt
// writer). A manifest.json identity guard refuses stores built by a
// different study (seed/scale/reps/universe), exactly as campaign
// manifests refuse foreign checkpoint directories.

const (
	storeMagic   = "cwts1\n"
	storeFile    = "rounds.cwt"
	manifestFile = "manifest.json"
)

// Manifest pins the identity of the study a store belongs to. Every
// field must match exactly for Open to accept an existing store —
// appending rounds from a different universe would splice two
// incomparable time series.
type Manifest struct {
	Seed        uint64  `json:"seed"`
	Scale       float64 `json:"scale"`
	Reps        int     `json:"reps"`
	Targets     int     `json:"targets"`
	TargetsHash uint64  `json:"targets_hash"`
}

// Record is one completed round: its index, the wall-clock start time
// (Unix seconds; the only non-deterministic field, pinned by the
// runner's clock) and the round's aggregates.
type Record struct {
	Round   int                  `json:"round"`
	At      int64                `json:"at"`
	Summary measure.RoundSummary `json:"summary"`
}

// Store is the open round store. It is safe for concurrent use: the
// query API reads (Rounds, Len, Version) while the runner appends.
type Store struct {
	mu   sync.Mutex
	w    *framelog.Writer
	recs []Record

	// version counts completed appends; the response cache compares it
	// to detect that a cached body predates the newest round. Reading
	// it is lock-free so the serving hot path never contends with an
	// in-flight append.
	version atomic.Uint64
}

// Open opens (or creates) the round store in dir and verifies it
// belongs to the study described by m. A torn tail — a frame cut short
// or failing its checksum, from a crash mid-append — is truncated
// away; everything before it is intact by checksum and loaded.
func Open(dir string, m Manifest) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trend: store: %w", err)
	}
	if err := checkManifest(dir, m); err != nil {
		return nil, err
	}
	s := &Store{}
	path := filepath.Join(dir, storeFile)
	w, err := framelog.Open(path, storeMagic, func(payload []byte) bool {
		var rec Record
		if json.Unmarshal(payload, &rec) != nil || rec.Round != len(s.recs) {
			return false
		}
		s.recs = append(s.recs, rec)
		return true
	})
	if errors.Is(err, framelog.ErrBadMagic) {
		return nil, fmt.Errorf("trend: %s is not a trend store (bad magic)", path)
	}
	if err != nil {
		return nil, fmt.Errorf("trend: store: %w", err)
	}
	s.w = w
	s.version.Store(uint64(len(s.recs)))
	return s, nil
}

// checkManifest validates an existing manifest against m, or writes m
// for a fresh store.
func checkManifest(dir string, m Manifest) error {
	path := filepath.Join(dir, manifestFile)
	var have Manifest
	err := framelog.ReadManifest(path, &have)
	switch {
	case err == nil:
		if have != m {
			return fmt.Errorf(
				"trend: store %s belongs to a different study (store: seed=%d scale=%g reps=%d targets=%d hash=%#x; ours: seed=%d scale=%g reps=%d targets=%d hash=%#x)",
				dir, have.Seed, have.Scale, have.Reps, have.Targets, have.TargetsHash,
				m.Seed, m.Scale, m.Reps, m.Targets, m.TargetsHash)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		err = framelog.WriteManifest(path, m)
	}
	if err != nil {
		return fmt.Errorf("trend: store manifest: %w", err)
	}
	return nil
}

// Append durably appends one round. rec.Round must be exactly the next
// round index — the store is a gap-free time series, and an
// out-of-order append means the caller lost track of what's already
// persisted.
func (s *Store) Append(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.Round != len(s.recs) {
		return fmt.Errorf("trend: store has %d rounds; cannot append round %d", len(s.recs), rec.Round)
	}
	payload, err := json.Marshal(rec)
	if err == nil {
		if err = s.w.Append(payload); err == nil {
			err = s.w.Sync()
		}
	}
	if err != nil {
		return fmt.Errorf("trend: store: %w", err)
	}
	s.recs = append(s.recs, rec)
	s.version.Add(1)
	return nil
}

// Len returns the number of completed rounds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Version returns the append counter — it changes exactly when a new
// round lands, so equal versions imply byte-identical query responses.
func (s *Store) Version() uint64 { return s.version.Load() }

// Rounds returns a copy of the records with from ≤ Round ≤ to
// (inclusive; bounds are clamped). to < 0 means "through the latest".
func (s *Store) Rounds(from, to int) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	if to < 0 || to >= len(s.recs) {
		to = len(s.recs) - 1
	}
	if from < 0 {
		from = 0
	}
	if from > to {
		return nil
	}
	return append([]Record(nil), s.recs[from:to+1]...)
}

// Close fsyncs and closes the journal file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil
	}
	err := s.w.Close()
	s.w = nil
	return err
}
