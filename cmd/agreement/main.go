// Command agreement runs one synchronous k-set agreement execution — the
// paper's Figure-2 condition-based algorithm, its early-deciding variant,
// or the classical baseline — under a chosen failure scenario, and prints
// the per-process decisions, rounds and specification verdict.
//
// It is a thin CLI over the kset.System handle: the flags become
// construction options, one kset.System is built, and a single Run
// executes the scenario. -trace runs the same System over a transport that
// records each round's sends and prints them, round by round, with the
// round's crashes and decisions.
//
// Usage:
//
//	agreement -n 8 -t 5 -k 2 -d 3 -l 1 -m 4 \
//	          -input 4,4,4,2,1,2,3,1 \
//	          [-variant cond|early|classical] \
//	          [-crash "6@1:2,7@2:0"] \
//	          [-trace]
//
// -crash "6@1:2,7@2:0" crashes p6 in round 1 after 2 sends and p7 in
// round 2 before any; each process is named at most once.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"kset"
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
	var tr *tracer
	if *trace {
		tr = &tracer{}
		opts = append(opts, kset.WithTransport(func(int) (kset.Transport, error) { return tr, nil }))
	}

	sys, err := kset.New(opts...)
	if err != nil {
		return err
	}
	res, err := sys.Run(context.Background(), input, fp)
	if err != nil {
		return err
	}
	if tr != nil {
		fmt.Println()
		tr.render(os.Stdout, res, fp)
	}

	fmt.Printf("\n%-5s %-10s %-10s %-8s\n", "proc", "proposed", "decided", "round")
	for id := 1; id <= *n; id++ {
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

// tracer is the reliable matrix transport recording the run it carries:
// each round's sends, rendered while their payloads are valid. Reset clears
// the recorded rounds.
type tracer struct {
	rounds.MatrixTransport
	n      int
	rounds [][]byte // rounds[r-1]: round r's header and send lines
}

func (t *tracer) Reset(n int) {
	t.MatrixTransport.Reset(n)
	t.n, t.rounds = n, t.rounds[:0]
}

func (t *tracer) BeginRound(r int) {
	t.MatrixTransport.BeginRound(r)
	t.rounds = append(t.rounds, fmt.Appendf(nil, "round %d\n", r))
}

func (t *tracer) Send(r int, src rounds.ProcessID, payload any, order []rounds.ProcessID, limit int) {
	status := ""
	if limit < t.n {
		status = fmt.Sprintf("  [crashed after %d/%d sends]", limit, t.n)
	}
	t.rounds[r-1] = fmt.Appendf(t.rounds[r-1], "  p%-3d sends %v%s\n", src, payload, status)
	t.MatrixTransport.Send(r, src, payload, order, limit)
}

// render writes the recorded rounds, each followed by the crashes and the
// decisions the run's Result places in it.
func (t *tracer) render(w io.Writer, res *kset.Result, fp kset.FailurePattern) {
	for i, sends := range t.rounds {
		r := i + 1
		w.Write(sends)
		var crashed []string
		for id := rounds.ProcessID(1); int(id) <= t.n; id++ {
			if res.Crashed[id] && fp.Crashes[id].Round == r {
				crashed = append(crashed, fmt.Sprintf("p%d", id))
			}
		}
		if len(crashed) > 0 {
			fmt.Fprintf(w, "  crashed: %s\n", strings.Join(crashed, " "))
		}
		for j, dr := range res.DecisionRound {
			if dr == r {
				fmt.Fprintf(w, "  p%-3d DECIDES %v\n", j+1, res.Decisions[rounds.ProcessID(j+1)])
			}
		}
	}
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
		spec = strings.TrimSpace(spec)
		// A missing separator leaves an empty field, which Atoi refuses.
		idS, rest, _ := strings.Cut(spec, "@")
		roundS, sendsS, _ := strings.Cut(rest, ":")
		id, err1 := strconv.Atoi(idS)
		round, err2 := strconv.Atoi(roundS)
		sends, err3 := strconv.Atoi(sendsS)
		if err1 != nil || err2 != nil || err3 != nil {
			return fp, fmt.Errorf("bad crash spec %q (want id@round:sends)", spec)
		}
		pid := rounds.ProcessID(id)
		if _, dup := fp.Crashes[pid]; dup {
			return fp, fmt.Errorf("crash spec %q: p%d already has a crash", spec, id)
		}
		fp.Crashes[pid] = rounds.Crash{Round: round, AfterSends: sends}
	}
	return fp, nil
}
