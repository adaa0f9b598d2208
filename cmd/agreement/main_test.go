package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kset"
	"kset/internal/rounds"
)

var update = flag.Bool("update", false, "rewrite testdata/trace_v1.txt from this run")

// output runs the command and returns what it printed.
func output(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestEarlyTraceSendColumn pins how a traced early-deciding run renders its
// sends — the wrapper travels as a pointer, which %v alone would print as
// an address-of struct — and that the traced run, folded exactly as the
// untraced one is, reports what the untraced one does.
func TestEarlyTraceSendColumn(t *testing.T) {
	args := []string{"-n", "6", "-t", "4", "-k", "1", "-d", "2", "-l", "1", "-m", "4",
		"-input", "1,2,3,4,1,2", "-crash", "6@1:2", "-variant", "early"}
	traced := output(t, append(args, "-trace")...)
	for _, line := range []string{
		"  p4   sends (4 flag=false)\n",
		"  p6   sends (2 flag=false)  [crashed after 2/6 sends]\n",
		"  p1   sends ((cond=⊥ tmf=⊥ out=4) flag=false)\n",
		"  p5   sends ((cond=⊥ tmf=⊥ out=4) flag=true)\n",
	} {
		if !strings.Contains(traced, line) {
			t.Errorf("trace lacks %q:\n%s", line, traced)
		}
	}
	plain := output(t, args...)
	_, table, ok := strings.Cut(plain, "\nproc ")
	if !ok || !strings.HasSuffix(traced, table) || !strings.Contains(table, "messages delivered: 92") {
		t.Errorf("untraced run reports\n%s\ntraced run\n%s", plain, traced)
	}
}

// TestTraceGolden pins the bytes -trace prints, byte for byte, for each
// variant under no crash, two crashes in two rounds, and four crashes —
// three in round 1, among them prefixes of 0 and of n — at one n = 8
// configuration. Regenerate (only for a deliberate change of the format)
// with:
//
//	go test ./cmd/agreement -run TestTraceGolden -update
func TestTraceGolden(t *testing.T) {
	var got bytes.Buffer
	for _, variant := range []string{"cond", "early", "classical"} {
		for _, crash := range []string{"", "6@1:2,7@2:0", "6@1:0,7@1:8,2@2:3,3@1:5"} {
			fmt.Fprintf(&got, "=== -variant %s -crash %q\n", variant, crash)
			got.WriteString(output(t, "-n", "8", "-t", "5", "-k", "2", "-d", "3", "-l", "1", "-m", "4",
				"-input", "4,4,4,2,1,2,3,1", "-variant", variant, "-crash", crash, "-trace"))
		}
	}
	golden := filepath.Join("testdata", "trace_v1.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-trace output diverged from %s:\n%s", golden, got.Bytes())
	}
}

// tracedSystem is a classical System of four processes whose runs go
// through tr.
func tracedSystem(t *testing.T, tr *tracer) *kset.System {
	t.Helper()
	sys, err := kset.New(
		kset.WithParams(kset.Params{N: 4, T: 2, K: 1, D: 1, L: 1}),
		kset.WithExecutor(kset.Classical),
		kset.WithTransport(func(int) (kset.Transport, error) { return tr, nil }),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestTraceRecordsExecution runs a crash through the tracer: one recorded
// round per executed round, every sender's send line — the crashing one's
// with its prefix — and the crash and the decisions in their rounds.
func TestTraceRecordsExecution(t *testing.T) {
	tr := &tracer{}
	fp := kset.FailurePattern{Crashes: map[rounds.ProcessID]rounds.Crash{3: {Round: 1, AfterSends: 2}}}
	res, err := tracedSystem(t, tr).Run(context.Background(), kset.Vector{4, 2, 7, 5}, fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.rounds) != res.Rounds || res.Rounds != 3 {
		t.Fatalf("tracer recorded %d rounds, the result says %d, want 3", len(tr.rounds), res.Rounds)
	}
	for r, want := range []int{4, 3, 3} { // p3 crashed in round 1
		if got := strings.Count(string(tr.rounds[r]), " sends "); got != want {
			t.Errorf("round %d has %d send lines, want %d:\n%s", r+1, got, want, tr.rounds[r])
		}
	}
	var out bytes.Buffer
	tr.render(&out, res, fp)
	for _, want := range []string{"round 1\n", "  p3   sends 7  [crashed after 2/4 sends]\n", "  crashed: p3\nround 2\n", "  p4   DECIDES 7\n"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("rendered trace lacks %q:\n%s", want, out.String())
		}
	}
	if got := strings.Count(out.String(), "DECIDES"); got != 3 {
		t.Errorf("%d decisions rendered, want 3:\n%s", got, out.String())
	}
}

// TestTraceReusedAcrossRuns runs one tracer twice: Reset clears the
// recorded rounds, so the second run renders what the first did.
func TestTraceReusedAcrossRuns(t *testing.T) {
	tr := &tracer{}
	sys := tracedSystem(t, tr)
	var renders []string
	for i := 0; i < 2; i++ {
		res, err := sys.Run(context.Background(), kset.Vector{1, 2, 1, 2}, kset.FailurePattern{})
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.rounds) != res.Rounds {
			t.Fatalf("run %d: tracer holds %d rounds for a %d-round run", i+1, len(tr.rounds), res.Rounds)
		}
		var out bytes.Buffer
		tr.render(&out, res, kset.FailurePattern{})
		renders = append(renders, out.String())
	}
	if renders[0] != renders[1] {
		t.Errorf("reused tracer rendered\n%s\nthen\n%s", renders[0], renders[1])
	}
}

// TestTraceCrashedInIDOrder pins that a round's crashed: line lists the
// processes by ID, not by their names as strings: p2 before p10.
func TestTraceCrashedInIDOrder(t *testing.T) {
	out := output(t, "-n", "12", "-crash", "2@1:3,10@1:5", "-trace")
	if !strings.Contains(out, "\n  crashed: p2 p10\n") {
		t.Errorf("trace lacks \"crashed: p2 p10\":\n%s", out)
	}
}

// TestParseCrashes pins the -crash grammar: comma-separated id@round:sends
// specs, each a process at most once; a malformed or repeated spec is an
// error that names it.
func TestParseCrashes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[rounds.ProcessID]rounds.Crash
		bad  string // the spec the error must name
	}{
		{in: "", want: map[rounds.ProcessID]rounds.Crash{}},
		{in: "6@1:2", want: map[rounds.ProcessID]rounds.Crash{6: {Round: 1, AfterSends: 2}}},
		{in: "6@1:2, 7@2:0", want: map[rounds.ProcessID]rounds.Crash{6: {Round: 1, AfterSends: 2}, 7: {Round: 2, AfterSends: 0}}},
		{in: "6@1:2x", bad: "6@1:2x"},
		{in: "6@1:2,6@2:1", bad: "6@2:1"},
		{in: "6@1:2,7@2:0,6@1:2", bad: "6@1:2"},
		{in: "6", bad: "6"},
		{in: "6@1", bad: "6@1"},
		{in: "6:1@2", bad: "6:1@2"},
		{in: "6@1:2:3", bad: "6@1:2:3"},
		{in: "6@1:2,", bad: ""},
		{in: "p6@1:2", bad: "p6@1:2"},
	} {
		fp, err := parseCrashes(tc.in)
		if tc.want != nil {
			if err != nil || !reflect.DeepEqual(fp.Crashes, tc.want) {
				t.Errorf("parseCrashes(%q) = %v, %v; want %v", tc.in, fp.Crashes, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.bad)) {
			t.Errorf("parseCrashes(%q) = %v, %v; want an error naming %q", tc.in, fp.Crashes, err, tc.bad)
		}
	}
}
