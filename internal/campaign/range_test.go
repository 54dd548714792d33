package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestShardRangeMatchesRun pins the contract that makes distribution
// sound: ShardRange must partition targets exactly as Run does, with
// contiguous gap-free coverage.
func TestShardRangeMatchesRun(t *testing.T) {
	for _, tc := range []struct{ total, shards int }{
		{10, 1}, {10, 3}, {7, 7}, {100, 16}, {3, 5}, {0, 1},
	} {
		prev := 0
		for s := 0; s < tc.shards; s++ {
			lo, hi := ShardRange(tc.total, tc.shards, s)
			if lo != prev {
				t.Fatalf("total %d shards %d: shard %d starts at %d, want %d", tc.total, tc.shards, s, lo, prev)
			}
			if hi < lo {
				t.Fatalf("total %d shards %d: shard %d is [%d,%d)", tc.total, tc.shards, s, lo, hi)
			}
			prev = hi
		}
		if prev != tc.total {
			t.Fatalf("total %d shards %d: coverage ends at %d", tc.total, tc.shards, prev)
		}
	}
}

// TestRunRangeAssembly is the distribution-soundness test at the
// engine level: every shard range executed independently via RunRange
// (each in its own checkpoint dir, as remote workers would), the
// resulting journals assembled into one directory, and Resume replays
// the assembled campaign with the exact delivery sequence of a local
// Run — every record replayed, none re-visited.
func TestRunRangeAssembly(t *testing.T) {
	const n, shards = 23, 4
	targets := make([]string, n)
	for i := range targets {
		targets[i] = fmt.Sprintf("site-%02d.example", i)
	}
	visit := func(_ context.Context, d string) (string, error) {
		if d == "site-07.example" {
			return "", fmt.Errorf("unreachable %s", d)
		}
		return "visited:" + d, nil
	}
	record := func(out *[]string) func(Result[string]) {
		return func(r Result[string]) {
			if r.Err != nil {
				*out = append(*out, fmt.Sprintf("%d err %v", r.Index, r.Err))
				return
			}
			*out = append(*out, fmt.Sprintf("%d ok %s", r.Index, r.Value))
		}
	}

	// Reference: one local run.
	var want []string
	cfg := Config{Label: "assembly", Shards: shards, Workers: 2}
	if _, err := Run(context.Background(), cfg, targets, visit, record(&want)); err != nil {
		t.Fatal(err)
	}

	// Distributed: each range in its own dir, then assemble.
	hash := HashTargets(targets)
	assembled := filepath.Join(t.TempDir(), "assembled")
	if err := InitCheckpointDir(assembled, "assembly", n, hash); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < shards; s++ {
		lo, hi := ShardRange(n, shards, s)
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("worker-%d", s))
		rcfg := cfg
		rcfg.Checkpoint = &Checkpoint{Dir: dir, Codec: stringCodec{}, TargetsHash: hash}
		stats, err := RunRange(context.Background(), rcfg, targets, s, shards, visit, nil)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		if stats.Done != int64(hi-lo) {
			t.Fatalf("shard %d: done %d of %d", s, stats.Done, hi-lo)
		}
		data, err := os.ReadFile(filepath.Join(dir, ShardFilename(s)))
		if err != nil {
			t.Fatal(err)
		}
		// What the coordinator runs before merging.
		if err := CheckJournal(data, lo, hi); err != nil {
			t.Fatalf("shard %d journal: %v", s, err)
		}
		if err := os.WriteFile(filepath.Join(assembled, ShardFilename(s)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var got []string
	rcfg := cfg
	rcfg.Shards = 3 // resume under a different geometry, like PR 4's tests
	rcfg.Checkpoint = &Checkpoint{Dir: assembled, Codec: stringCodec{}, TargetsHash: hash}
	stats, err := Resume(context.Background(), rcfg, targets,
		func(_ context.Context, d string) (string, error) {
			t.Errorf("assembled resume re-visited %s", d)
			return "", nil
		}, record(&got))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != n {
		t.Fatalf("replayed %d of %d", stats.Replayed, n)
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("delivery %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

// TestCheckJournalRejects covers the coordinator's merge guard: torn
// tails, trailing garbage, incomplete coverage and wrong ranges are
// all refused.
func TestCheckJournalRejects(t *testing.T) {
	const n = 8
	targets := make([]string, n)
	for i := range targets {
		targets[i] = fmt.Sprintf("t%d", i)
	}
	dir := t.TempDir()
	cfg := Config{Label: "guard", Checkpoint: &Checkpoint{Dir: dir, Codec: stringCodec{}}}
	if _, err := RunRange(context.Background(), cfg, targets, 0, 2,
		func(_ context.Context, d string) (string, error) { return d, nil }, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, ShardFilename(0)))
	if err != nil {
		t.Fatal(err)
	}

	if err := CheckJournal(data, 0, 4); err != nil {
		t.Fatalf("valid journal rejected: %v", err)
	}
	if err := CheckJournal(data[:len(data)-3], 0, 4); err == nil {
		t.Fatal("torn tail accepted")
	}
	if err := CheckJournal(append(append([]byte(nil), data...), 'x'), 0, 4); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	if err := CheckJournal(data, 0, 5); err == nil {
		t.Fatal("incomplete coverage accepted")
	}
	if err := CheckJournal(data, 4, 8); err == nil {
		t.Fatal("wrong range accepted")
	}
	if err := CheckJournal([]byte("not a journal"), 0, 4); err == nil {
		t.Fatal("garbage header accepted")
	}
	if err := CheckJournal([]byte(journalMagic), 0, 0); err != nil {
		t.Fatalf("empty-range journal rejected: %v", err)
	}
}
