package campaign

import (
	"context"
	"fmt"
)

// Distributed range execution — the engine-side half of the fleet
// protocol (internal/campaign/dist). A remote worker leases one shard
// of a larger campaign: the exact [lo, hi) target range Run would have
// given that shard under the same Config. It executes the shard with
// RunRange (Run's own shard loop, over that one shard) and a local
// checkpoint, producing a shard journal whose records carry GLOBAL
// target indices in the standard framing, and ships that file to the
// coordinator. The coordinator assembles every
// shipped journal (plus a manifest, see InitCheckpointDir) into one
// checkpoint directory, and Resume replays it exactly as if a single
// machine had run — and been killed right after — the whole campaign:
// the delivered sequence, and therefore any deterministic sink's
// output, is byte-identical to a local run's.

// ShardRange returns shard s's half-open global target range under
// Run's partitioning of total targets into shards contiguous pieces —
// the ranges a coordinator leases out must be exactly the ranges a
// single-machine Run would execute.
func ShardRange(total, shards, s int) (lo, hi int) {
	return s * total / shards, (s + 1) * total / shards
}

// EffectiveShards returns the shard count Run would use for a campaign
// of n targets under this Config — the partitioning a coordinator must
// mirror when leasing shard ranges to remote workers.
func (c Config) EffectiveShards(n int) int { return c.shards(n) }

// RunRange executes shard `shard` of `shards` — the global target
// range ShardRange(len(targets), shards, shard) — delivering results
// (global Index order, calling goroutine) into sink exactly like Run
// does for that shard. With cfg.Checkpoint set, deliveries journal into
// shard-<shard>.cwj under the checkpoint directory (fresh: any stale
// journals in the directory are wiped first), so independent RunRange
// calls in separate directories produce journals that assemble into
// one resumable campaign. The manifest records the WHOLE campaign's
// identity, not the range's: the journal is one piece of that
// campaign. Stats covers just this range.
//
// The error semantics match Run: non-nil on cancellation or on a
// checkpoint setup/write failure, with Stats valid either way.
func RunRange[T, R any](ctx context.Context, cfg Config, targets []T, shard, shards int,
	visit func(context.Context, T) (R, error), sink func(Result[R])) (Stats, error) {

	if shard < 0 || shards <= shard {
		return Stats{}, fmt.Errorf("campaign: shard %d of %d out of range", shard, shards)
	}
	return run(ctx, cfg, targets, visit, sink, shard, shard+1, shards, false)
}
