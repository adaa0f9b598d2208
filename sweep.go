package kset

import (
	"context"
	"fmt"
)

// SweepPoint is one point of a parameter grid: a key for the result
// table, the System options that configure the point's problem instance,
// and the scenario source to stream through it. Build grids with
// SweepDegrees, expand them with SweepFailures and SweepExecutors, or
// assemble points directly.
type SweepPoint struct {
	// Key labels the point in the sweep's results ("d=3",
	// "early/initial=2", …).
	Key string
	// Options configure the point's System; they are validated by New
	// when the sweep reaches the point.
	Options []Option
	// Source is the scenario stream the point runs.
	Source ScenarioSource
}

// SweepResult is one grid point's aggregate outcome.
type SweepResult struct {
	// Key is the point's key, as given.
	Key string `json:"key"`
	// Params echoes the point's validated problem parameters.
	Params Params `json:"params"`
	// Stats aggregates the point's campaign. Each point runs its own
	// campaign with its own results-plane accumulator, so Stats.Metrics
	// is keyed per grid point; a CollectInto option passed to RunSweep,
	// by contrast, accumulates across the whole grid.
	Stats *CampaignStats `json:"stats"`
}

// RunSweep runs one campaign per grid point — the trade-off-curve driver:
// each point gets its own System (built and validated from its Options)
// and streams its Source through a campaign, and the results arrive keyed
// in grid order. Points run sequentially, so a sweep is exactly as
// deterministic as its sources; the campaign options (VerifyRuns,
// CollectInto, …) apply to every point, and a point's worker count is its
// Options' WithWorkers. RunSweep stops at the first
// construction or cancellation error, returning the results of the
// points that completed.
func RunSweep(ctx context.Context, points []SweepPoint, opts ...CampaignOption) ([]SweepResult, error) {
	results := make([]SweepResult, 0, len(points))
	for i := range points {
		pt := &points[i]
		sys, err := New(pt.Options...)
		if err != nil {
			return results, fmt.Errorf("sweep %q: %w", pt.Key, err)
		}
		stats, err := sys.RunSource(ctx, pt.Source, opts...)
		if err != nil {
			return results, fmt.Errorf("sweep %q: %w", pt.Key, err)
		}
		results = append(results, SweepResult{Key: pt.Key, Params: sys.Params(), Stats: stats})
	}
	return results, nil
}

// SweepDegrees builds the degree sweep of the Section-5 hierarchy
// S^0_t[ℓ] ⊂ S^1_t[ℓ] ⊂ … : one point per condition degree d = 0..t−ℓ
// (the range where the condition helps), keyed "d=<d>", each configured
// with base's n, t, k, ℓ and the max_ℓ-generated condition over {1..m}^n
// with x = t−d. The src callback supplies each point's scenario stream
// from its parameters and condition.
func SweepDegrees(base Params, m int, src func(p Params, c *MaxCondition) ScenarioSource) ([]SweepPoint, error) {
	if base.L > base.T {
		return nil, fmt.Errorf("sweep: ℓ=%d > t=%d leaves no degree where the condition helps: %w",
			base.L, base.T, ErrBadParams)
	}
	points := make([]SweepPoint, 0, base.T-base.L+1)
	for d := 0; d <= base.T-base.L; d++ {
		p := base
		p.D = d
		c, err := NewMaxCondition(p.N, m, p.X(), p.L)
		if err != nil {
			return nil, fmt.Errorf("sweep d=%d: %w", d, err)
		}
		points = append(points, SweepPoint{
			Key:     fmt.Sprintf("d=%d", d),
			Options: []Option{WithParams(p), WithCondition(c)},
			Source:  src(p, c),
		})
	}
	return points, nil
}

// SweepFailures expands one grid point into one point per pattern of the
// family, keyed "<key>/<family>=<i>" (or "<family>=<i>" when the base key
// is empty): the f-axis of a trade-off grid. Each point's source is the
// base source crossed with that single pattern.
func SweepFailures(base SweepPoint, fam FailureFamily) []SweepPoint {
	return sweepAxis(base, fam.Name(), fam.Size(), func(src ScenarioSource, i int) ScenarioSource {
		return CrossFailures(src, fam.Pattern(i))
	})
}

// sweepAxis expands base along one axis of size items: point i is keyed
// "<key>/<name>=<i>" (or "<name>=<i>" when the base key is empty), shares
// base.Options, and runs cross(base.Source, i).
func sweepAxis(base SweepPoint, name string, size int, cross func(ScenarioSource, int) ScenarioSource) []SweepPoint {
	points := make([]SweepPoint, 0, size)
	for i := 0; i < size; i++ {
		key := fmt.Sprintf("%s=%d", name, i)
		if base.Key != "" {
			key = base.Key + "/" + key
		}
		points = append(points, SweepPoint{Key: key, Options: base.Options, Source: cross(base.Source, i)})
	}
	return points
}

// SweepExecutors crosses grid points with executors: each input point
// yields one point per executor, keyed "<executor>/<key>", with the
// executor installed as the point's system default.
func SweepExecutors(points []SweepPoint, execs ...Executor) []SweepPoint {
	out := make([]SweepPoint, 0, len(points)*len(execs))
	for _, pt := range points {
		for _, ex := range execs {
			opts := make([]Option, 0, len(pt.Options)+1)
			opts = append(opts, pt.Options...)
			opts = append(opts, WithExecutor(ex))
			out = append(out, SweepPoint{
				Key:     ex.Name() + "/" + pt.Key,
				Options: opts,
				Source:  pt.Source,
			})
		}
	}
	return out
}
