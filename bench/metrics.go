package main

// metricDef is one metric of the benchmark's contract. BENCHMARK.json
// lists the same names, units, directions and bounds; bench_test.go keeps
// the two in step.
type metricDef struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only: share of the parent's median it may worsen by
	// exact marks an end-to-end count that two runs of the same code at the
	// same seed must print to the digit (-selfcheck demands it). Its bound
	// is above zero only because the driver's runs differ in seed.
	exact bool
	// moves names the end-to-end metrics ("workload/metric") a layer
	// metric is predicted to move; still names workloads on which the
	// prediction is no change. Layer metrics only.
	moves, still []string
}

// endToEnd is the same set on every workload. An op is one call a user
// waits for (one RunSource / RunCampaign / RunCheckpointed over a
// fixed-size batch, or one ksetd job from POST to its terminal event); a
// run is one agreement execution. README.md has the measurements the
// bounds are sized from.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "runs_per_s", unit: "1/s", better: "higher", bound: 0.15},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.15},
	{name: "cpu_us_per_run", unit: "us", better: "lower", bound: 0.15},
	{name: "allocs_per_run", unit: "count", better: "lower", bound: 0.01},
	{name: "alloc_bytes_per_run", unit: "B", better: "lower", bound: 0.02},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10},
	{name: "rounds_per_run", unit: "count", better: "lower", bound: 0.01, exact: true},
	{name: "msgs_per_run", unit: "count", better: "lower", bound: 0.01, exact: true},
	{name: "ok_op_share", unit: "ratio", better: "higher", bound: 0.001, exact: true},
}

// endToEndOf folds a workload's passes into the end-to-end metrics.
// Every time is at reference speed (see refKernel). A pass's rate and
// CPU cost are medians over its slices (see runsPerS); the metric is the
// median over the passes. Set-up is the median over
// every cold start, latency over every pass's ops pooled. Memory is a
// median over the passes; the counts are the first pass's (every pass has
// the same, which the identity check enforces). ok_op_share is the share
// of the attempted ops that passed the whole correctness check: the
// issue's failed_op_share turned round, since a metric may never read 0.
func endToEndOf(passes, setups []*passRecord, attempted, failed int) map[string]float64 {
	var setup, rate, cpu, allocs, bytes, rss, lat []float64
	for _, r := range setups {
		setup = append(setup, r.SetupRefS)
	}
	for _, r := range passes {
		runs := float64(r.Tally.Runs)
		rate = append(rate, r.runsPerS())
		cpu = append(cpu, r.cpuUSPerRun())
		allocs = append(allocs, ratio(float64(r.Mallocs), runs))
		bytes = append(bytes, ratio(float64(r.AllocB), runs))
		rss = append(rss, float64(r.PeakRSSKB)/1024)
		lat = append(lat, r.OpRefMS...)
	}
	return map[string]float64{
		"setup_s":             median(setup),
		"runs_per_s":          median(rate),
		"op_p50_ms":           median(lat),
		"cpu_us_per_run":      median(cpu),
		"allocs_per_run":      median(allocs),
		"alloc_bytes_per_run": median(bytes),
		"peak_rss_mb":         median(rss),
		"rounds_per_run":      passes[0].Tally.roundsPerRun(),
		"msgs_per_run":        passes[0].Tally.msgsPerRun(),
		"ok_op_share":         ratio(float64(attempted-failed), float64(attempted)),
	}
}

// perLayer is what the traced run reports: the traced workload's own op
// taken apart (campaign.*, generate.*, stats.*), every layer's kernel on
// inputs of the workload's shape, and the driver's own diagnostics. Times
// are at reference speed. moves and still are the predictions a change to
// the layer is held to: the end-to-end metrics it should move, and the
// workloads on which nothing should change.
var perLayer = []metricDef{
	// The op and its rows. generate + exec + observe + join + self = op,
	// per run; the residual is named, never dropped.
	{name: "campaign.op_us_per_run", unit: "us", better: "lower"},
	{name: "generate.ns_per_scenario", unit: "ns", better: "lower",
		moves: []string{"small_mix/runs_per_s", "small_mix/allocs_per_run"}, still: []string{"wide_sync", "wire_udp"}},
	{name: "generate.allocs_per_scenario", unit: "count", better: "lower",
		moves: []string{"small_mix/allocs_per_run"}, still: []string{"wide_sync", "wire_udp"}},
	{name: "campaign.exec_us_per_run", unit: "us", better: "lower",
		moves: []string{"small_mix/runs_per_s", "wide_sync/runs_per_s", "fault_storm/runs_per_s", "wire_udp/runs_per_s"}},
	{name: "stats.observe_ns_per_run", unit: "ns", better: "lower",
		moves: []string{"small_mix/runs_per_s"}, still: []string{"wide_sync", "wire_udp"}},
	{name: "stats.join_us_per_op", unit: "us", better: "lower",
		moves: []string{"ksetd_jobs/op_p50_ms"}, still: []string{"wide_sync"}},
	{name: "stats.json_bytes_per_op", unit: "B", better: "lower",
		moves: []string{"ksetd_jobs/op_p50_ms"}, still: []string{"wide_sync"}},
	{name: "campaign.self_us_per_run", unit: "us", better: "lower",
		moves: []string{"small_mix/runs_per_s", "small_mix/cpu_us_per_run", "ksetd_jobs/op_p50_ms"}, still: []string{"wide_sync", "wire_udp"}},

	// The campaign's feed modes and hand-off on the same scenarios.
	{name: "campaign.us_per_run_p2", unit: "us", better: "lower",
		moves: []string{"ksetd_jobs/runs_per_s"}, still: []string{"small_mix"}},
	{name: "campaign.source_us_per_run", unit: "us", better: "lower",
		moves: []string{"small_mix/runs_per_s", "wire_udp/runs_per_s", "ksetd_jobs/runs_per_s"}},
	{name: "campaign.slice_us_per_run", unit: "us", better: "lower",
		moves: []string{"wide_sync/runs_per_s"}},
	{name: "campaign.submit_us_per_run", unit: "us", better: "lower"},
	{name: "shard.checkpointed_us_per_run", unit: "us", better: "lower",
		moves: []string{"fault_storm/runs_per_s", "fault_storm/op_p50_ms"}, still: []string{"small_mix", "wide_sync", "ksetd_jobs", "wire_udp"}},
	{name: "shard.ckpt_share", unit: "ratio", better: "lower",
		moves: []string{"fault_storm/op_p50_ms"}, still: []string{"small_mix", "wide_sync", "ksetd_jobs", "wire_udp"}},

	// Kernels on inputs of the workload's shape.
	{name: "core.run_us_per_run.figure2", unit: "us", better: "lower",
		moves: []string{"small_mix/runs_per_s", "wide_sync/runs_per_s"}, still: []string{"wire_udp"}},
	{name: "core.run_us_per_run.early", unit: "us", better: "lower",
		moves: []string{"small_mix/runs_per_s"}, still: []string{"wire_udp"}},
	{name: "core.run_us_per_run.classical", unit: "us", better: "lower",
		moves: []string{"small_mix/runs_per_s", "wide_sync/runs_per_s"}, still: []string{"wire_udp"}},
	{name: "rounds.engine_us_per_run", unit: "us", better: "lower",
		moves: []string{"wide_sync/runs_per_s"}, still: []string{"small_mix"}},
	{name: "rounds.msgs_per_run", unit: "count", better: "lower",
		moves: []string{"wide_sync/msgs_per_run"}},
	{name: "rounds.rounds_per_run", unit: "count", better: "lower",
		moves: []string{"wide_sync/rounds_per_run"}},
	{name: "condition.compile_ms", unit: "ms", better: "lower",
		moves: []string{"*/setup_s"}, still: []string{"ksetd_jobs"}},
	{name: "condition.contains_ns", unit: "ns", better: "lower",
		moves: []string{"wide_sync/runs_per_s"}, still: []string{"ksetd_jobs"}},
	{name: "condition.decode_ns", unit: "ns", better: "lower",
		moves: []string{"wide_sync/runs_per_s"}, still: []string{"ksetd_jobs"}},
	{name: "vector.key_ns.key64", unit: "ns", better: "lower",
		moves: []string{"small_mix/runs_per_s"}, still: []string{"wide_sync"}},
	{name: "vector.key_ns.fallback", unit: "ns", better: "lower",
		moves: []string{"wide_sync/runs_per_s"}, still: []string{"small_mix"}},
	{name: "faultnet.us_per_run", unit: "us", better: "lower",
		moves: []string{"fault_storm/runs_per_s"}, still: []string{"small_mix", "wide_sync"}},
	{name: "faultnet.overhead_us_per_run", unit: "us", better: "lower",
		moves: []string{"fault_storm/runs_per_s"}, still: []string{"small_mix", "wide_sync"}},
	{name: "faultnet.lost_per_run", unit: "count", better: "lower"},
	{name: "faultnet.delayed_per_run", unit: "count", better: "lower"},
	{name: "faultnet.dup_per_run", unit: "count", better: "lower"},
	{name: "shard.ckpt_encode_us", unit: "us", better: "lower",
		moves: []string{"fault_storm/op_p50_ms"}, still: []string{"small_mix", "wide_sync", "ksetd_jobs", "wire_udp"}},
	{name: "shard.ckpt_decode_us", unit: "us", better: "lower"},
	{name: "shard.ckpt_bytes", unit: "B", better: "lower",
		moves: []string{"fault_storm/alloc_bytes_per_run"}, still: []string{"small_mix", "wide_sync", "ksetd_jobs", "wire_udp"}},
	{name: "async.us_per_run.mutex", unit: "us", better: "lower",
		moves: []string{"small_mix/runs_per_s"}, still: []string{"wide_sync", "fault_storm"}},
	{name: "async.us_per_run.waitfree", unit: "us", better: "lower"},
	{name: "async.us_per_run.msgpassing", unit: "us", better: "lower"},
	{name: "async.undecided_share", unit: "ratio", better: "lower"},
	{name: "wire.encode_ns", unit: "ns", better: "lower",
		moves: []string{"wire_udp/runs_per_s"}, still: []string{"small_mix", "wide_sync", "fault_storm", "ksetd_jobs"}},
	{name: "wire.decode_ns", unit: "ns", better: "lower",
		moves: []string{"wire_udp/runs_per_s"}, still: []string{"small_mix", "wide_sync", "fault_storm", "ksetd_jobs"}},
	{name: "wire.pipe_us_per_run", unit: "us", better: "lower",
		moves: []string{"wire_udp/cpu_us_per_run"}, still: []string{"small_mix", "wide_sync", "fault_storm", "ksetd_jobs"}},
	{name: "wire.udp_us_per_run", unit: "us", better: "lower",
		moves: []string{"wire_udp/runs_per_s", "wire_udp/op_p50_ms"}, still: []string{"small_mix", "wide_sync", "fault_storm", "ksetd_jobs"}},
	{name: "wire.lost_per_run", unit: "count", better: "lower"},
	{name: "experiments.registry_ms", unit: "ms", better: "lower"},
	{name: "service.compile_us", unit: "us", better: "lower",
		moves: []string{"ksetd_jobs/op_p50_ms"}, still: []string{"small_mix", "wide_sync", "fault_storm", "wire_udp"}},
	{name: "service.post_ms", unit: "ms", better: "lower",
		moves: []string{"ksetd_jobs/op_p50_ms"}, still: []string{"small_mix", "wide_sync", "fault_storm", "wire_udp"}},
	{name: "service.first_event_ms", unit: "ms", better: "lower",
		moves: []string{"ksetd_jobs/op_p50_ms"}, still: []string{"small_mix", "wide_sync", "fault_storm", "wire_udp"}},
	{name: "service.terminal_ms", unit: "ms", better: "lower",
		moves: []string{"ksetd_jobs/op_p50_ms", "ksetd_jobs/runs_per_s"}, still: []string{"small_mix", "wide_sync", "fault_storm", "wire_udp"}},
	{name: "service.job_p99_ms", unit: "ms", better: "lower"},
	{name: "service.jobs_per_s", unit: "1/s", better: "higher",
		moves: []string{"ksetd_jobs/runs_per_s"}, still: []string{"small_mix", "wide_sync", "fault_storm", "wire_udp"}},
	{name: "service.rss_kb_per_job", unit: "kB", better: "lower",
		moves: []string{"ksetd_jobs/peak_rss_mb"}, still: []string{"small_mix", "wide_sync", "fault_storm", "wire_udp"}},

	// The driver's diagnostics: they explain a noisy run and are never a
	// claim.
	{name: "driver.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "driver.ref_kernel_ms", unit: "ms", better: "lower"},
	{name: "driver.steal_share", unit: "ratio", better: "lower"},
	{name: "driver.gap_s", unit: "s", better: "lower"},
}

// runsPerS and cpuUSPerRun are the pass's rate and CPU cost at reference
// speed: the median over its slices of what a run cost, the collection
// after each slice included. A median, not the pass's total: the host
// stalls single ops for tens of milliseconds, and through a quarter of an
// hour of that two runs of the same code gave totals 7 to 15 % apart and
// medians 0.4 to 1.8 % apart (README.md). What the program does every op
// or every collection counts; an op that stalls once in a pass does not.
func (r *passRecord) runsPerS() float64 {
	v := make([]float64, len(r.Slices))
	for i, s := range r.Slices {
		v[i] = s.perRunS()
	}
	return ratio(1, median(v))
}

func (r *passRecord) cpuUSPerRun() float64 {
	v := make([]float64, len(r.Slices))
	for i, s := range r.Slices {
		v[i] = s.cpuPerRunS()
	}
	return median(v) * 1e6
}
