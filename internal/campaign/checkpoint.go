package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cookiewalk/internal/framelog"
	"cookiewalk/internal/xrand"
)

// Codec serializes result values for the checkpoint journal. In both
// methods v is a *R, a pointer to a value of the campaign's result
// type R: a pointer fits in an interface without allocating, so the
// engine hands the codec its own result slots and neither direction
// copies or boxes a value per record.
//
// Append runs on the delivery loop, one record at a time; DecodeInto
// runs on worker goroutines concurrently, so it must be safe for
// concurrent use. Both must round-trip exactly: decoding the bytes
// Append produced must make *v indistinguishable from the original to
// the campaign's sink, whatever *v held before, or resumed runs cannot
// be byte-identical to uninterrupted ones.
type Codec interface {
	// Append appends the encoding of *v to dst and returns the
	// extended slice. An error disables journaling for the rest of the
	// campaign (see Run).
	Append(dst []byte, v any) ([]byte, error)
	// DecodeInto reverses Append, overwriting *v. A decode error is
	// not fatal: the engine falls back to re-visiting that target
	// fresh.
	DecodeInto(data []byte, v any) error
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
// returns). Only the delivery loop, which runs on Run's calling
// goroutine, writes the journal or records a failure, so the state
// needs no locking.
type checkpointState struct {
	cp  Checkpoint
	err error
}

// fail records err as the run's journal error unless one is already
// recorded; from then on no shard opens or writes a journal.
func (ck *checkpointState) fail(err error) {
	if ck.err == nil {
		ck.err = fmt.Errorf("campaign: checkpoint: %w", err)
	}
}

func writeManifest(dir string, m manifest) error {
	if err := framelog.WriteManifest(filepath.Join(dir, manifestName), m); err != nil {
		return fmt.Errorf("campaign: write manifest: %w", err)
	}
	return nil
}

// openCheckpoint validates cfg.Checkpoint, when set, and readies its
// directory for a campaign of n targets. A resume checks the manifest
// against the campaign and loads every journaled record, indexed by
// target. A fresh run, or a resume that finds no manifest (nothing was
// ever journaled here), wipes leftover journals and writes the
// manifest.
func openCheckpoint(cfg Config, n int, resume bool) (*checkpointState, []journalRecord, error) {
	cp := cfg.Checkpoint
	if cp == nil {
		return nil, nil, nil
	}
	if cp.Dir == "" {
		return nil, nil, fmt.Errorf("campaign: Checkpoint.Dir is empty")
	}
	if cp.Codec == nil {
		return nil, nil, fmt.Errorf("campaign: Checkpoint.Codec is nil")
	}
	ck := &checkpointState{cp: *cp}
	if resume {
		var m manifest
		switch err := framelog.ReadManifest(filepath.Join(cp.Dir, manifestName), &m); {
		case err == nil:
			if m.Label != cfg.Label || m.Targets != n || m.TargetsHash != cp.TargetsHash {
				return nil, nil, fmt.Errorf(
					"campaign: checkpoint %s belongs to a different campaign: journal (label %q, %d targets, hash %#x) vs resume (label %q, %d targets, hash %#x)",
					cp.Dir, m.Label, m.Targets, m.TargetsHash, cfg.Label, n, cp.TargetsHash)
			}
			replay, err := loadJournals(cp.Dir, n)
			if err != nil {
				return nil, nil, fmt.Errorf("campaign: load journals: %w", err)
			}
			return ck, replay, nil
		case !errors.Is(err, os.ErrNotExist):
			return nil, nil, fmt.Errorf("campaign: read manifest: %w", err)
		}
		// Without a manifest no journal here is trustworthy, so the stray
		// .cwj files go too. Otherwise journals orphaned by a deleted
		// manifest would survive next to the manifest written below, and
		// a LATER resume would replay their checksummed-but-foreign
		// records as this campaign's results.
	}
	if err := InitCheckpointDir(cp.Dir, cfg.Label, n, cp.TargetsHash); err != nil {
		return nil, nil, err
	}
	return ck, nil, nil
}

// Resume is Run for a campaign that may have already partially run
// with the same Checkpoint configuration: journaled results are
// replayed into the sink without calling visit, and only the targets
// missing from the journal are visited and journaled (see the package
// doc). An empty or absent checkpoint directory makes Resume
// equivalent to Run. A journal recorded for a different campaign
// (label, target count or TargetsHash mismatch) is refused. Stats
// counts replayed deliveries in both Done and Replayed.
func Resume[T, R any](ctx context.Context, cfg Config, targets []T,
	visit func(context.Context, T) (R, error), sink func(Result[R])) (Stats, error) {

	if cfg.Checkpoint == nil {
		return Stats{}, fmt.Errorf("campaign: Resume requires Config.Checkpoint")
	}
	n := cfg.shards(len(targets))
	return run(ctx, cfg, targets, visit, sink, 0, n, n, true)
}
