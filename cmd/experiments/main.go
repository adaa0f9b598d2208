// Command experiments drives the declarative experiment registry: every
// evaluation artifact of the paper (E1–E11) is a registered spec executed
// on the Campaign/Sweep infrastructure, producing a structured
// report rendered as text or JSON. JSON reports are byte-deterministic
// for a fixed registry, so CI diffs them structurally (see the golden
// test next to this file).
//
// With -campaign it instead drives the high-throughput entry point — one
// kset.System fed by a generated scenario stream — across seeded random
// inputs × a seeded failure-pattern family × all three synchronous
// executors, and reports the campaign's results-plane accumulator
// (decision-round histogram, per-executor breakdown, condition-hit rate,
// violation count) in the same report encoding.
//
// Usage:
//
//	experiments [-json] [-only E4[,E5,...]] [-params n=6[,trials=100,...]]
//	experiments -list [-json]
//	experiments -campaign [-json] [-runs 30000] [-seed 1] [-workers 8]
//	experiments -campaign -shard 0/4 [-json] ...
//
// -params overrides the selected experiments' defaults (see -list); unlike
// ksetd's POST /v1/experiments/{id}, a value may exceed its default.
//
// With -shard i/K the campaign runs only shard i of the deterministic
// K-way split of the same scenario stream: K processes, one per shard
// index, cover the sweep exactly once between them, and their JSON
// reports' metrics fold back into the single-process result via ksetd's
// POST /v1/merge (or any client that merges accumulators).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"kset"
	"kset/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	only := fs.String("only", "", "run a comma-separated subset (E1..E11)")
	paramSpec := fs.String("params", "", "override the selected experiments' defaults, as k=v[,k=v...]")
	list := fs.Bool("list", false, "list the registered experiments instead of running them")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of text")
	campaign := fs.Bool("campaign", false, "run the campaign load sweep instead of E1..E11")
	runs := fs.Int("runs", 30000, "campaign: number of scenarios")
	seed := fs.Int64("seed", 1, "campaign: random seed (same seed ⇒ same stats)")
	workers := fs.Int("workers", 0, "campaign: worker count (0 = GOMAXPROCS)")
	shardSpec := fs.String("shard", "", "campaign: run shard i of a K-way split, as i/K (e.g. 0/4)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *list:
		return runList(stdout, *asJSON)
	case *campaign:
		return runCampaign(stdout, *asJSON, *runs, *seed, *workers, *shardSpec)
	}

	var ids []string
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	overrides, err := parseParams(*paramSpec)
	if err != nil {
		return err
	}
	reports, err := experiments.Run(ids, overrides)
	if err != nil {
		return err
	}
	if *asJSON {
		if err := experiments.WriteJSON(stdout, reports); err != nil {
			return err
		}
	} else {
		for _, r := range reports {
			fmt.Fprintln(stdout, r)
			fmt.Fprintln(stdout)
		}
	}
	failed := 0
	for _, r := range reports {
		if !r.OK {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed verification", failed)
	}
	return nil
}

// parseShard parses the -shard flag's i/K form. Empty means unsharded
// (k = 0); otherwise both halves must be integers with 0 ≤ i < K.
func parseShard(spec string) (i, k int, err error) {
	if spec == "" {
		return 0, 0, nil
	}
	is, ks, ok := strings.Cut(spec, "/")
	if ok {
		if i, err = strconv.Atoi(strings.TrimSpace(is)); err == nil {
			k, err = strconv.Atoi(strings.TrimSpace(ks))
		}
	}
	if !ok || err != nil || k < 1 || i < 0 || i >= k {
		return 0, 0, fmt.Errorf("bad -shard %q: want i/K with 0 <= i < K", spec)
	}
	return i, k, nil
}

// parseParams parses the -params flag's k=v[,k=v...] form; empty means
// no overrides. Whether the selected experiments take a key is
// experiments.Run's check.
func parseParams(spec string) (experiments.Params, error) {
	if spec == "" {
		return nil, nil
	}
	p := experiments.Params{}
	for _, pair := range strings.Split(spec, ",") {
		key, val, _ := strings.Cut(pair, "=")
		key = strings.TrimSpace(key)
		v, err := strconv.Atoi(strings.TrimSpace(val))
		if _, dup := p[key]; key == "" || err != nil || dup {
			return nil, fmt.Errorf("bad -params pair %q: want key=integer, each key once", pair)
		}
		p[key] = v
	}
	return p, nil
}

// runList prints the experiment registry: IDs, paper anchors, titles and
// default parameters.
func runList(stdout io.Writer, asJSON bool) error {
	specs := experiments.Registry()
	if asJSON {
		return experiments.WriteJSON(stdout, specs)
	}
	for _, s := range specs {
		fmt.Fprintf(stdout, "%-4s %-22s %s\n", s.ID, s.Paper, s.Title)
		if len(s.Defaults) > 0 {
			raw, err := json.Marshal(s.Defaults)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "     defaults: %s\n", raw)
		}
	}
	return nil
}

// runCampaign streams a generated scenario sweep — seeded random inputs ×
// a seeded failure-pattern family × the three synchronous executors —
// through one verified campaign and reports the results-plane
// accumulator. The structured cross product factors the requested run
// budget into inputs × patterns × executors, so the sweep covers every
// combination rather than one random pairing per run.
func runCampaign(stdout io.Writer, asJSON bool, runs int, seed int64, workers int, shardSpec string) error {
	p := kset.Params{N: 8, T: 5, K: 2, D: 3, L: 1}
	const m = 4
	cond, err := kset.NewMaxCondition(p.N, m, p.X(), p.L)
	if err != nil {
		return err
	}
	opts := []kset.Option{kset.WithParams(p), kset.WithCondition(cond)}
	if workers > 0 {
		opts = append(opts, kset.WithWorkers(workers))
	}
	sys, err := kset.New(opts...)
	if err != nil {
		return err
	}

	execs := []kset.Executor{kset.Figure2, kset.EarlyDeciding, kset.Classical}
	const patterns = 10
	inputs := (runs + patterns*len(execs) - 1) / (patterns * len(execs))
	src := kset.CrossExecutors(
		kset.FailureSchedules(
			kset.RandomInputs(seed, p.N, m, inputs),
			kset.RandomCrashFamily(seed+1, p.N, p.T, p.RMax(), patterns),
		),
		execs...,
	)
	total, _ := src.Size()

	shardIdx, shardK, err := parseShard(shardSpec)
	if err != nil {
		return err
	}
	if shardK > 0 {
		src, err = kset.ShardSource(src, shardIdx, shardK)
		if err != nil {
			return err
		}
	}

	stats, err := sys.RunSource(context.Background(), src, kset.VerifyRuns())
	if err != nil {
		return err
	}

	params := experiments.Params{
		"n": p.N, "t": p.T, "k": p.K, "d": p.D, "l": p.L, "m": m,
		"inputs": inputs, "patterns": patterns, "executors": len(execs),
		"scenarios": int(total), "seed": int(seed),
	}
	if shardK > 0 {
		params["shard"] = shardIdx
		params["shards"] = shardK
	}
	// Embed the raw accumulator so the JSON report is a mergeable shard:
	// ksetd's POST /v1/merge folds campaign reports by their "metrics"
	// field, letting K sharded runs reconstruct the unsharded stats.
	metrics, err := json.Marshal(stats.Metrics)
	if err != nil {
		return err
	}
	r := experiments.Report{
		ID:      "campaign",
		Title:   "generated load sweep: random inputs × crash patterns × executors",
		Paper:   "§6.2",
		OK:      stats.Violations == 0 && stats.Errors == 0,
		Params:  params,
		Metrics: metrics,
	}
	acc := stats.Metrics

	totals := r.Section("totals")
	tbl := totals.AddTable("metric", "value")
	tbl.Row("runs", fmt.Sprint(stats.Runs))
	tbl.Row("errors", fmt.Sprint(stats.Errors))
	tbl.Row("condition-hit rate", fmt.Sprintf("%.4f (%d runs)", stats.HitRate(), stats.ConditionHits))
	tbl.Row("spec violations", fmt.Sprint(stats.Violations))
	tbl.Row("messages delivered", fmt.Sprint(stats.MessagesDelivered))
	tbl.Row("mean decision round", fmt.Sprintf("%.3f", stats.MeanDecisionRound()))
	tbl.Row("max decision round", fmt.Sprint(stats.MaxDecisionRound()))

	hist := r.Section("decision-rounds")
	hist.Note("histogram of latest decision rounds (0 = nobody decided)")
	htbl := hist.AddTable("round", "runs")
	for round, count := range stats.DecisionRounds {
		htbl.Row(fmt.Sprint(round), fmt.Sprint(count))
	}

	byExec := r.Section("by-executor")
	etbl := byExec.AddTable("executor", "runs", "mean round", "max round", "messages")
	for _, name := range acc.ExecutorKeys() {
		g := acc.ByExecutor[name]
		etbl.Row(name, fmt.Sprint(g.Runs), fmt.Sprintf("%.3f", g.Rounds.Mean()),
			fmt.Sprint(g.Rounds.Max), fmt.Sprint(g.Messages))
	}

	byCrash := r.Section("by-crashes")
	ctbl := byCrash.AddTable("crashes", "runs", "mean round", "max round")
	for _, f := range acc.CrashKeys() {
		g := acc.ByCrashes[f]
		ctbl.Row(fmt.Sprint(f), fmt.Sprint(g.Runs), fmt.Sprintf("%.3f", g.Rounds.Mean()),
			fmt.Sprint(g.Rounds.Max))
	}

	if asJSON {
		if err := experiments.WriteJSON(stdout, r); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(stdout, r)
	}
	// The exit code must agree with the report's ok field: violations and
	// run errors both fail the process, so shell gates and the archived
	// JSON artifact cannot disagree.
	if stats.Violations > 0 {
		return fmt.Errorf("%d specification violation(s)", stats.Violations)
	}
	if stats.Errors > 0 {
		return fmt.Errorf("%d run error(s)", stats.Errors)
	}
	return nil
}
