package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"cookiewalk/internal/framelog"
	"cookiewalk/internal/xrand"
)

// Codec serializes result values for the checkpoint journal. Both
// methods must be safe for concurrent use (encoding runs on worker
// goroutines) and must round-trip exactly: Decode(Encode(v)) must be
// indistinguishable from v to the campaign's sink, or resumed runs
// cannot be byte-identical to uninterrupted ones.
type Codec interface {
	// Encode serializes one result value.
	Encode(v any) ([]byte, error)
	// Decode reverses Encode. The returned value must have the
	// campaign's result type R. A decode error is not fatal: the engine
	// falls back to re-visiting that target fresh.
	Decode(data []byte) (any, error)
}

// Checkpoint makes a campaign durable: every delivered result is
// appended to a per-shard journal under Dir, and Resume replays those
// journals instead of re-visiting. See journal.go for the record
// layout and internal/framelog for the file format and its
// crash-safety argument.
type Checkpoint struct {
	// Dir holds the manifest and the per-shard journal files. Each
	// campaign needs its own directory — Run wipes stale journals from
	// prior runs, and Resume refuses a manifest describing a different
	// campaign.
	Dir string
	// FlushEvery is the flush interval in records: the journal's
	// buffered writer is flushed to the OS after every FlushEvery
	// appended records (default 64), and always flushed + fsynced at
	// shard completion. Smaller values shrink the window a crash can
	// lose at the cost of more write syscalls.
	FlushEvery int
	// Codec serializes result values. Required.
	Codec Codec
	// TargetsHash, when nonzero, pins the identity of the target list
	// (e.g. HashTargets for string targets). It is stored in the
	// manifest; Resume refuses journals recorded for a different hash,
	// so a checkpoint can never silently replay onto the wrong targets.
	TargetsHash uint64
}

// defaultFlushEvery is the journal flush interval when
// Checkpoint.FlushEvery is zero.
const defaultFlushEvery = 64

// manifestName is the campaign-identity file inside a checkpoint dir.
const manifestName = "manifest.json"

// manifest records which campaign a checkpoint dir belongs to.
type manifest struct {
	Label       string `json:"label"`
	Targets     int    `json:"targets"`
	TargetsHash uint64 `json:"targets_hash"`
}

// PathLabel renders a campaign label as a filesystem-safe checkpoint
// subdirectory component ("landscape US East" → "landscape-us-east").
// Every layer that maps labels to journal directories — the study's
// per-experiment checkpointing and the fleet coordinator's journal
// assembly — must agree on this mapping, so it lives here.
func PathLabel(label string) string {
	return strings.ToLower(strings.ReplaceAll(label, " ", "-"))
}

// InitCheckpointDir prepares dir as the checkpoint directory of the
// given campaign identity: creates it, wipes journals left by any
// prior run, and writes the manifest — exactly the state a fresh
// checkpointed Run establishes before its first delivery. The fleet
// coordinator uses it to assemble worker-shipped shard journals into a
// directory Resume accepts as this campaign's own, so the PR-4
// manifest guard covers distributed merges too: a journal can never
// replay into a campaign with a different label, target count or
// targets hash.
func InitCheckpointDir(dir, label string, targets int, targetsHash uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: checkpoint dir: %w", err)
	}
	if err := removeJournals(dir); err != nil {
		return fmt.Errorf("campaign: reset checkpoint dir: %w", err)
	}
	return writeManifest(dir, manifest{Label: label, Targets: targets, TargetsHash: targetsHash})
}

// EnsureCheckpointDir prepares dir as the checkpoint directory of the
// given campaign identity WITHOUT wiping journals already present —
// the recovery-path sibling of InitCheckpointDir. A restarted fleet
// coordinator uses it when it resumes an interrupted assembly: the
// shard journals merged before the crash must survive the restart, and
// the manifest is (re)written from the authoritative campaign specs so
// Resume still accepts the directory as this campaign's own.
func EnsureCheckpointDir(dir, label string, targets int, targetsHash uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: checkpoint dir: %w", err)
	}
	return writeManifest(dir, manifest{Label: label, Targets: targets, TargetsHash: targetsHash})
}

// HashTargets folds a string target list into a stable identity hash
// for Checkpoint.TargetsHash (order-sensitive, platform-independent).
func HashTargets(targets []string) uint64 {
	h := xrand.Hash64("campaign-targets")
	for _, t := range targets {
		h = xrand.Mix64(h, xrand.Hash64(t))
	}
	return h
}

// checkpointState is the engine's per-run journaling context: the
// validated configuration plus the first journal error, which disables
// further journaling without aborting the campaign (results stay
// correct; only durability is lost, and the error is reported when Run
// returns). fail is called from worker goroutines and the delivery
// loop alike, hence the mutex.
type checkpointState struct {
	cp Checkpoint

	// dead flips once on the first failure so workers can stop paying
	// for Codec.Encode the moment durability is lost (the encoded bytes
	// would only be dropped by the delivery loop anyway).
	dead atomic.Bool

	mu  sync.Mutex
	err error
}

func (ck *checkpointState) fail(err error) {
	ck.dead.Store(true)
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if ck.err == nil {
		ck.err = fmt.Errorf("campaign: checkpoint: %w", err)
	}
}

// firstErr returns the first recorded journal error, if any.
func (ck *checkpointState) firstErr() error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.err
}

// prepareCheckpoint validates cfg.Checkpoint and readies Dir. A fresh
// Run wipes leftover journals and writes the manifest; a Resume has
// already validated the manifest (writing it if the dir was empty).
func prepareCheckpoint(cfg Config, nTargets int, resuming bool) (*checkpointState, error) {
	cp := *cfg.Checkpoint
	if cp.Dir == "" {
		return nil, fmt.Errorf("campaign: Checkpoint.Dir is empty")
	}
	if cp.Codec == nil {
		return nil, fmt.Errorf("campaign: Checkpoint.Codec is nil")
	}
	if !resuming {
		if err := InitCheckpointDir(cp.Dir, cfg.Label, nTargets, cp.TargetsHash); err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(cp.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint dir: %w", err)
	}
	return &checkpointState{cp: cp}, nil
}

func writeManifest(dir string, m manifest) error {
	if err := framelog.WriteManifest(filepath.Join(dir, manifestName), m); err != nil {
		return fmt.Errorf("campaign: write manifest: %w", err)
	}
	return nil
}

// loadCheckpoint validates the manifest against the resuming campaign
// and loads every journaled record. A missing manifest means nothing
// was ever journaled here: Resume then degrades to a fresh Run (it
// writes the manifest and journals from scratch).
func loadCheckpoint(cfg Config, nTargets int) (map[int]journalRecord, error) {
	cp := cfg.Checkpoint
	var m manifest
	err := framelog.ReadManifest(filepath.Join(cp.Dir, manifestName), &m)
	if errors.Is(err, os.ErrNotExist) {
		// No manifest means no trustworthy journal — wipe any stray .cwj
		// files before journaling from scratch. Without this, journals
		// orphaned by a deleted manifest would survive next to the
		// manifest written here, and a LATER resume would replay their
		// checksummed-but-foreign records as this campaign's results.
		if err := InitCheckpointDir(cp.Dir, cfg.Label, nTargets, cp.TargetsHash); err != nil {
			return nil, err
		}
		return map[int]journalRecord{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: read manifest: %w", err)
	}
	if m.Label != cfg.Label || m.Targets != nTargets || m.TargetsHash != cp.TargetsHash {
		return nil, fmt.Errorf(
			"campaign: checkpoint %s belongs to a different campaign: journal (label %q, %d targets, hash %#x) vs resume (label %q, %d targets, hash %#x)",
			cp.Dir, m.Label, m.Targets, m.TargetsHash, cfg.Label, nTargets, cp.TargetsHash)
	}
	replay, err := loadJournals(cp.Dir)
	if err != nil {
		return nil, fmt.Errorf("campaign: load journals: %w", err)
	}
	return replay, nil
}

// Resume is Run for a campaign that may have already partially run
// with the same Checkpoint configuration: journaled results are
// replayed — decoded and delivered to the sink in order, without
// calling visit — and only the targets missing from the journal are
// scheduled, their results appended to the journal exactly as an
// uninterrupted Run would have. The delivered sequence (and therefore
// any deterministic sink's output) is byte-identical to an
// uninterrupted Run's for ANY kill point and ANY Workers/Shards
// setting, on either run.
//
// An empty or absent checkpoint directory makes Resume equivalent to
// Run. A journal recorded for a different campaign (label, target
// count or TargetsHash mismatch) is refused. Stats counts replayed
// deliveries in both Done and Replayed.
func Resume[T, R any](ctx context.Context, cfg Config, targets []T,
	visit func(context.Context, T) (R, error), sink func(Result[R])) (Stats, error) {

	if cfg.Checkpoint == nil {
		return Stats{}, fmt.Errorf("campaign: Resume requires Config.Checkpoint")
	}
	if cfg.Checkpoint.Codec == nil {
		return Stats{}, fmt.Errorf("campaign: Checkpoint.Codec is nil")
	}
	replay, err := loadCheckpoint(cfg, len(targets))
	if err != nil {
		return Stats{}, err
	}
	return run(ctx, cfg, targets, visit, sink, replay)
}
