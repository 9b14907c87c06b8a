package cluster

import (
	"context"

	"hitl/internal/scenario"
)

// Run normalizes and digests a raw spec, as a front door does at decode,
// and runs it through Execute; the coordinator tests drive the pool
// through it.
func (c *Coordinator) Run(ctx context.Context, spec scenario.Spec, opts RunOptions) (*scenario.Result, RunStats, error) {
	norm, err := scenario.Normalize(spec)
	if err != nil {
		return nil, RunStats{}, err
	}
	digest, err := scenario.Digest(norm)
	if err != nil {
		return nil, RunStats{}, err
	}
	ex, stats, err := c.Execute(ctx, norm, digest, opts)
	return ex.Result, stats, err
}
