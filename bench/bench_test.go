package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json, the contract the driver reads.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesCatalog holds BENCHMARK.json to the program's own
// catalog of workloads and metrics, and both to the contract's limits.
func TestManifestMatchesCatalog(t *testing.T) {
	m := readManifest(t)
	if strings.Join(m.Command, " ") != "go run ./bench" || len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("command %q over paths %q, want go run ./bench over bench", m.Command, m.Paths)
	}
	if m.RunSeconds != oneSeconds {
		t.Errorf("run_seconds %d, the one-workload form is sized for %d", m.RunSeconds, oneSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := m.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why outside the contract's limits", w.name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, limit int) {
		if len(want) < 1 || len(want) > limit {
			t.Errorf("%d %s metrics, want 1..%d", len(want), kind, limit)
		}
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.name || g.Unit != def.unit || g.Better != def.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %s [%s] %s", kind, i, g, def.name, def.unit, def.better)
			}
			if !nameRE.MatchString(def.name) || !unitRE.MatchString(def.unit) {
				t.Errorf("%s metric %q [%s]: name or unit outside the contract's syntax", kind, def.name, def.unit)
			}
			if def.better != "lower" && def.better != "higher" {
				t.Errorf("%s metric %q: better = %q", kind, def.name, def.better)
			}
			switch {
			case kind == "per-layer" && g.Bound != nil:
				t.Errorf("per-layer metric %q has a bound", def.name)
			case kind == "end-to-end" && (g.Bound == nil || *g.Bound != def.bound || def.bound <= 0 || def.bound > 0.25):
				t.Errorf("end-to-end metric %q: bound %v in BENCHMARK.json, %v in the program, want the same in (0, 0.25]", def.name, g.Bound, def.bound)
			}
		}
	}
	check("end-to-end", m.EndToEnd, endToEnd, 16)
	check("per-layer", m.PerLayer, perLayer, 128)
	if s := endToEnd[0]; s.name != "setup_s" || s.unit != "s" || s.better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s [s] lower, got %+v", s)
	}

	seen := map[string]bool{}
	for _, w := range workloads {
		seen[w.name] = true
	}
	e2e := map[string]bool{}
	for _, def := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[def.name] {
			t.Errorf("name %q is used twice", def.name)
		}
		seen[def.name] = true
	}
	for _, def := range endToEnd {
		e2e[def.name] = true
	}
	// Every prediction names a workload and an end-to-end metric that exist.
	for _, def := range perLayer {
		for _, mv := range def.moves {
			w, metric, ok := strings.Cut(mv, "/")
			if !ok || !e2e[metric] || (w != "*" && workloadByName(w) == nil) {
				t.Errorf("%s moves %q: no such workload/metric", def.name, mv)
			}
		}
		for _, w := range def.still {
			if workloadByName(w) == nil {
				t.Errorf("%s is still on %q: no such workload", def.name, w)
			}
		}
	}
}

// TestMain lets the test binary stand in for the benchmark's own: the
// driver starts its children and the reference process from
// os.Executable(), which under go test is this binary. So the smoke tests
// run every pass in a process of its own, as the benchmark does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "-child" || os.Args[1] == "-refserver") {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestWorkloadsSmoke runs every workload's shortest pass twice, and one
// cold start, and applies the whole correctness check: no op fails, the
// two passes agree byte for byte, and the prefix matches golden.json.
func TestWorkloadsSmoke(t *testing.T) {
	d := &driver{seed: goldenSeed}
	defer d.stop()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			r := &workloadRun{w: w, ops: w.goldenOps}
			for pass := 1; pass <= 2; pass++ {
				rec := &passRecord{}
				if err := d.spawn(w, rec, "-quick", "-pass", strconv.Itoa(pass), "-ops", strconv.Itoa(r.ops)); err != nil {
					t.Fatal(err)
				}
				r.passes = append(r.passes, rec)
			}
			cold := &passRecord{}
			if err := d.spawn(w, cold, "-quick", "-setup-only"); err != nil {
				t.Fatal(err)
			}
			r.setups = append(r.passes[:2:2], cold)
			r.check(goldenSeed)
			if r.failed != 0 || r.attempted != 2*w.goldenOps {
				t.Fatalf("%d of %d ops failed: %v", r.failed, r.attempted, r.problems)
			}
			if _, ok := goldenFor(w.name, goldenSeed); !ok {
				t.Errorf("golden.json has no vector for %s at seed %d", w.name, goldenSeed)
			}
			got := endToEndOf(r.passes, r.setups, r.attempted, r.failed)
			for _, def := range endToEnd {
				if v, ok := got[def.name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", def.name, v)
				}
			}
			if len(got) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics computed, %d in the catalog", len(got), len(endToEnd))
			}
		})
	}
}

// TestTracedSmoke makes every workload's traced run at its smallest and
// checks what it reports: every per-layer metric and no other, a span
// file whose spans nest, and op rows that add up.
func TestTracedSmoke(t *testing.T) {
	d := &driver{seed: goldenSeed}
	defer d.stop()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.json")
			rec := &tracedRecord{}
			if err := d.spawn(w, rec, "-trace", "1", "-ops", "1", "-quick", "-trace-out", path); err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 {
				t.Fatalf("traced run failed its checks: %v", rec.Failures)
			}
			L := rec.Layers
			for _, def := range perLayer {
				if v, ok := L[def.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a number", def.name, v)
				}
			}
			if len(L) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, %d in the catalog", len(L), len(perLayer))
			}

			// generate + exec + observe + join + self = op, per run, and
			// the children alone do not overshoot the op by more than 15 %.
			op := L["campaign.op_us_per_run"]
			children := L["generate.ns_per_scenario"]/1e3 + L["campaign.exec_us_per_run"] +
				L["stats.observe_ns_per_run"]/1e3 + L["stats.join_us_per_op"]/rec.TracedRunsPerOp
			if sum := children + L["campaign.self_us_per_run"]; math.Abs(sum-op) > 1e-9*op {
				t.Errorf("rows sum to %g us/run, the op span is %g", sum, op)
			}
			if w.name == "small_mix" && children > 1.15*op {
				t.Errorf("the replayed children take %g us/run, the op only %g", children, op)
			}

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if tf.Workload != w.name || len(tf.Spans) != rec.Spans || len(tf.Spans) == 0 {
				t.Fatalf("span file: workload %q with %d spans, want %q with %d", tf.Workload, len(tf.Spans), w.name, rec.Spans)
			}
			for i, s := range tf.Spans {
				if s.ID != i+1 || s.Name == "" || s.End < s.Start {
					t.Fatalf("span %d malformed: %+v", i+1, s)
				}
				if s.Parent != 0 {
					p := tf.Spans[s.Parent-1]
					if s.Parent >= s.ID || p.Name != "op" || p.Op != s.Op {
						t.Fatalf("span %+v has parent %+v", s, p)
					}
				}
			}
		})
	}
}

// TestResultLine pins the shape of the line the driver parses.
func TestResultLine(t *testing.T) {
	r := &workloadRun{w: workloads[0], attempted: 3, metrics: map[string]float64{}}
	for i, def := range endToEnd {
		r.metrics[def.name] = float64(i) + 0.5
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := printResult(f, r, endToEnd, r.metrics); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || string(got["correct"]) != "true" || string(got["attempted"]) != "3" || string(got["failed"]) != "0" {
		t.Fatalf("result line %s", data)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, def := range endToEnd {
		if m, ok := metrics[def.name]; !ok || m.Unit != def.unit {
			t.Errorf("metric %s: %+v", def.name, m)
		}
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the line, want %d", len(metrics), len(endToEnd))
	}
	delete(r.metrics, "setup_s")
	if err := printResult(f, r, endToEnd, r.metrics); err == nil {
		t.Error("a missing metric must be an error, not a shorter line")
	}
}
