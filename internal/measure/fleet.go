package measure

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"

	"cookiewalk/internal/campaign"
	"cookiewalk/internal/campaign/dist"
	"cookiewalk/internal/vantage"
)

// Fleet glue: which campaigns a coordinator distributes and how a
// worker executes one leased range of them.
//
// Only the landscape crawl is distributed — eight vantage points over
// the full target list is the study's 45k-sites-×-8 workload, well over
// nine tenths of all visits. The derived experiments (accuracy audit,
// cookie comparisons, bypass) depend on the landscape's output and are
// comparatively tiny, so the coordinator runs them locally after the
// merge, replaying the assembled journals through the ordinary Resume
// path. That keeps the distributed protocol to one shape — pure
// target-range crawls — while still producing a Report byte-identical
// to a single-machine run's.

// landscapeLabel is the campaign label of one vantage point's landscape
// crawl. The coordinator's specs, the worker's lease runner and the
// local Landscape path must mint identical labels — the label keys the
// checkpoint directory and the manifest identity.
func landscapeLabel(vp vantage.VP) string {
	return "landscape " + vp.Name
}

// LandscapeSpecs describes the landscape campaigns over targets as
// distributable specs, partitioned exactly as this crawler's local
// engine would shard them.
func (c *Crawler) LandscapeSpecs(targets []string) []dist.Spec {
	shards := c.engine("").EffectiveShards(len(targets))
	hash := campaign.HashTargets(targets)
	specs := make([]dist.Spec, 0, len(vantage.All()))
	for _, vp := range vantage.All() {
		specs = append(specs, dist.Spec{
			Label:       landscapeLabel(vp),
			Targets:     len(targets),
			TargetsHash: hash,
			Shards:      shards,
		})
	}
	return specs
}

// RunLandscapeLease executes one leased landscape shard range against
// this crawler's universe, journaling into dir, and returns the path
// of the finished shard journal — the dist.Worker Runner for
// cookiewalk studies. The lease's campaign identity (targets count and
// hash) is verified against the local target list first, so a worker
// pointed at a coordinator for a different universe (other seed, other
// scale) refuses every lease instead of shipping alien results.
func (c *Crawler) RunLandscapeLease(ctx context.Context, lease dist.Lease, targets []string, dir string) (string, error) {
	vpName, ok := strings.CutPrefix(lease.Label, "landscape ")
	if !ok {
		return "", fmt.Errorf("measure: lease %s is not a landscape campaign (label %q)", lease.ID, lease.Label)
	}
	vp, ok := vantage.ByName(vpName)
	if !ok {
		return "", fmt.Errorf("measure: lease %s names unknown vantage point %q", lease.ID, vpName)
	}
	hash := campaign.HashTargets(targets)
	if lease.Targets != len(targets) || lease.TargetsHash != hash {
		return "", fmt.Errorf(
			"measure: lease %s is for a different universe: lease (%d targets, hash %#x) vs local (%d targets, hash %#x)",
			lease.ID, lease.Targets, lease.TargetsHash, len(targets), hash)
	}
	cfg := c.engine(lease.Label)
	cfg.Checkpoint = &campaign.Checkpoint{
		Dir:         dir,
		Codec:       ObservationCodec{Reg: c.Reg},
		TargetsHash: hash,
	}
	_, err := campaign.RunRange(ctx, cfg, targets, lease.Shard, lease.Shards, c.observe(vp, VisitOpts{}), nil)
	if err != nil {
		return "", err
	}
	return filepath.Join(dir, campaign.ShardFilename(lease.Shard)), nil
}
