// Command bench is the repository's benchmark: five workloads measured end
// to end in interleaved passes, each pass a fresh child process of this
// binary, plus one traced run per workload that times the calls into each
// layer from outside. README.md defines every metric and workload.
//
//	go run ./bench                      # the whole suite, human-readable
//	go run ./bench -workload small_mix  # one workload (the driver's form)
//	go run ./bench -selfcheck           # the suite twice on the same code
//	go run ./bench -update-golden       # re-pin golden.json at seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run one workload and end with the driver's one-line JSON result (default: the whole suite)")
		seed         = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = fs.Float64("seconds", 0, "timed seconds per workload, split over the passes (default 15 for one workload, 25 in the suite)")
		trace        = fs.Int("trace", 0, "1: make the traced run and report the per-layer metrics instead of the end-to-end ones")
		traceOut     = fs.String("trace-out", "", "span file of the traced run (default .bench_build/trace-<workload>.json)")
		selfcheck    = fs.Bool("selfcheck", false, "run the suite twice on the same code and compare against the bounds")
		updateGolden = fs.Bool("update-golden", false, "rewrite bench/golden.json from a seed-1 run")

		child     = fs.Bool("child", false, "internal: run one pass in this process")
		pass      = fs.Int("pass", 0, "internal: pass number")
		ops       = fs.Int("ops", 0, "internal: ops in the pass")
		setupOnly = fs.Bool("setup-only", false, "internal: stop after set-up")
		quick     = fs.Bool("quick", false, "internal: the smoke test: the traced run at its smallest, no wait between reference samples")
		spawned   = fs.Int64("spawned", 0, "internal: parent's clock at spawn, unix ns")
		refserver = fs.Bool("refserver", false, "internal: be the reference process")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *refserver {
		return serveRef(os.Stdin, os.Stdout)
	}
	if *child {
		gap := refMinGap
		if *quick {
			gap = 0
		}
		cfg := childConfig{workload: *workloadName, seed: *seed, pass: *pass, ops: *ops, setupOnly: *setupOnly, quick: *quick, spawned: *spawned, ref: openRefClient(gap)}
		var rec any
		var err error
		if *trace == 1 {
			rec, err = runTraced(cfg, *traceOut)
		} else {
			rec, err = runPass(cfg)
		}
		if err == nil {
			err = cfg.ref.err
		}
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(rec)
	}
	d := &driver{seed: *seed, seconds: *seconds, traceOut: *traceOut}
	defer d.stop()
	switch {
	case *updateGolden:
		return d.updateGolden()
	case *selfcheck:
		return d.selfcheck()
	case *workloadName != "":
		return d.one(*workloadName, *trace == 1)
	default:
		return d.suite()
	}
}
