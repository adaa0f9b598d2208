// Command agreement runs one synchronous k-set agreement execution — the
// paper's Figure-2 condition-based algorithm, its early-deciding variant,
// or the classical baseline — under a chosen failure scenario, and prints
// the per-process decisions, rounds and specification verdict.
//
// It is a thin CLI over the kset.System handle: the flags become
// construction options, one kset.System is built, and a single Run
// executes the scenario.
//
// Usage:
//
//	agreement -n 8 -t 5 -k 2 -d 3 -l 1 -m 4 \
//	          -input 4,4,4,2,1,2,3,1 \
//	          [-variant cond|early|classical] \
//	          [-crash "6@1:2,7@2:0"]   // p6 crashes in round 1 after 2 sends, …
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"kset"
	"kset/internal/condition"
	"kset/internal/core"
	"kset/internal/rounds"
	"kset/internal/vector"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "agreement:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("agreement", flag.ContinueOnError)
	n := fs.Int("n", 8, "number of processes")
	t := fs.Int("t", 5, "maximum crashes tolerated")
	k := fs.Int("k", 2, "agreement degree (distinct decided values allowed)")
	d := fs.Int("d", 3, "condition degree (condition is (t−d,ℓ)-legal)")
	l := fs.Int("l", 1, "ℓ of the condition")
	m := fs.Int("m", 4, "number of proposable values")
	inputFlag := fs.String("input", "", "comma-separated proposals, one per process")
	variant := fs.String("variant", "cond", "algorithm: cond, early or classical")
	crashFlag := fs.String("crash", "", "crash spec id@round:sends[,...]")
	trace := fs.Bool("trace", false, "print the round-by-round execution trace")
	if err := fs.Parse(args); err != nil {
		return err
	}

	input, err := parseInput(*inputFlag, *n)
	if err != nil {
		return err
	}
	fp, err := parseCrashes(*crashFlag)
	if err != nil {
		return err
	}

	p := kset.Params{N: *n, T: *t, K: *k, D: *d, L: *l}
	opts := []kset.Option{kset.WithParams(p)}
	var exec kset.Executor
	switch *variant {
	case "cond", "early":
		cond, err := kset.NewMaxCondition(*n, *m, p.X(), *l)
		if err != nil {
			return err
		}
		inC := cond.Contains(input)
		fmt.Printf("condition: max_%d-generated (x=%d,ℓ=%d)-legal; input ∈ C: %v\n", *l, p.X(), *l, inC)
		fmt.Printf("bounds: RCond=%d RMax=%d predicted=%d\n", p.RCond(), p.RMax(), core.PredictRounds(p, inC, fp))
		exec = kset.Figure2
		if *variant == "early" {
			exec = kset.EarlyDeciding
		}
		opts = append(opts, kset.WithCondition(cond))
	case "classical":
		exec = kset.Classical
		fmt.Printf("classical baseline: decides at round ⌊t/k⌋+1 = %d\n", *t / *k + 1)
	default:
		return fmt.Errorf("unknown variant %q", *variant)
	}
	opts = append(opts, kset.WithExecutor(exec))

	sys, err := kset.New(opts...)
	if err != nil {
		return err
	}

	var res *kset.Result
	if *trace {
		// The trace path drives the engine directly (trace hooks) — the
		// one workflow the System does not cover.
		res, err = runTraced(p, *variant, *n, *t, *k, *m, input, fp)
	} else {
		res, err = sys.Run(context.Background(), input, fp)
	}
	if err != nil {
		return err
	}

	ids := make([]int, 0, *n)
	for id := 1; id <= *n; id++ {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Printf("\n%-5s %-10s %-10s %-8s\n", "proc", "proposed", "decided", "round")
	for _, id := range ids {
		pid := rounds.ProcessID(id)
		decided, ok := res.Decisions[pid]
		switch {
		case res.Crashed[pid] && !ok:
			fmt.Printf("p%-4d %-10v %-10s %-8s\n", id, input[id-1], "crashed", "-")
		case ok:
			fmt.Printf("p%-4d %-10v %-10v %-8d\n", id, input[id-1], decided, res.DecisionRound[id-1])
		default:
			fmt.Printf("p%-4d %-10v %-10s %-8s\n", id, input[id-1], "none", "-")
		}
	}
	verdict := kset.Verify(input, fp, res, *k)
	fmt.Printf("\nverdict: %v\nmessages delivered: %d\n", verdict, res.MessagesDelivered)
	if !verdict.OK() {
		return fmt.Errorf("specification violated")
	}
	return nil
}

// runTraced executes the run on the engine directly with trace capture
// and renders the trace.
func runTraced(p kset.Params, variant string, n, t, k, m int, input kset.Vector, fp kset.FailurePattern) (*kset.Result, error) {
	var procs []rounds.Process
	var err error
	maxRounds := p.RMax()
	switch variant {
	case "cond", "early":
		c, cerr := condition.NewMax(n, m, p.X(), p.L)
		if cerr != nil {
			return nil, cerr
		}
		if variant == "early" {
			procs, err = core.NewEarlyRun(p, c, input)
		} else {
			procs, err = core.NewRun(p, c, input)
		}
	case "classical":
		maxRounds = t/k + 1
		procs, err = core.NewClassicalRun(n, t, k, input)
	}
	if err != nil {
		return nil, err
	}
	opts := rounds.Options{MaxRounds: maxRounds, Trace: &rounds.Trace{}}
	res, err := rounds.Run(procs, fp, opts)
	if err != nil {
		return nil, err
	}
	fmt.Printf("\n%s", opts.Trace.Render())
	return res, nil
}

func parseInput(s string, n int) (vector.Vector, error) {
	if s == "" {
		// Default: a vector dense in its top value, so it belongs to
		// reasonable conditions.
		v := vector.New(n)
		for i := range v {
			if i < (n+1)/2 {
				v[i] = 4
			} else {
				v[i] = vector.Value(1 + i%3)
			}
		}
		return v, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("input has %d values, want n=%d", len(parts), n)
	}
	v := vector.New(n)
	for i, part := range parts {
		x, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || x < 1 {
			return nil, fmt.Errorf("bad proposal %q", part)
		}
		v[i] = vector.Value(x)
	}
	return v, nil
}

func parseCrashes(s string) (rounds.FailurePattern, error) {
	fp := rounds.FailurePattern{Crashes: map[rounds.ProcessID]rounds.Crash{}}
	if s == "" {
		return fp, nil
	}
	for _, spec := range strings.Split(s, ",") {
		var id, round, sends int
		if _, err := fmt.Sscanf(strings.TrimSpace(spec), "%d@%d:%d", &id, &round, &sends); err != nil {
			return fp, fmt.Errorf("bad crash spec %q (want id@round:sends): %v", spec, err)
		}
		fp.Crashes[rounds.ProcessID(id)] = rounds.Crash{Round: round, AfterSends: sends}
	}
	return fp, nil
}
