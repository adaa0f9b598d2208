package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"kset"
)

var update = flag.Bool("update", false, "rewrite the golden file from this run")

// deterministicIDs are the experiments whose JSON reports are
// byte-deterministic run to run: all of them. E10's asynchronous runs are
// driven by a seeded single-goroutine scheduler, so their interleavings,
// and hence their decided values, are fixed by each scenario's seed.
const deterministicIDs = "E1,E2,E3,E4,E5,E6,E7,E8,E9,E10,E11"

// runJSON executes the command's run() with -json over the deterministic
// experiment set and returns the bytes it printed.
func runJSON(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run([]string{"-json", "-only", deterministicIDs}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenJSON locks the structured report encoding: the JSON emitted
// for the deterministic experiments must match the checked-in golden
// file byte for byte. Regenerate with:
//
//	go test ./cmd/experiments -run TestGoldenJSON -update
func TestGoldenJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	got := runJSON(t)
	golden := filepath.Join("testdata", "experiments.golden.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSON reports diverged from %s (%d vs %d bytes);\n"+
			"if the change is intentional, regenerate with -update", golden, len(got), len(want))
	}
}

// TestJSONDeterministic is the experiments-json-run-twice comparison:
// two in-process runs over the same registry must emit identical bytes —
// the property that makes reports machine-diffable at all.
func TestJSONDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	first := runJSON(t)
	second := runJSON(t)
	if !bytes.Equal(first, second) {
		t.Error("two runs of experiments -json produced different bytes")
	}
}

// TestListAndCampaignSmoke exercises the remaining CLI modes end to end.
func TestListAndCampaignSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatalf("-list: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("E10")) {
		t.Errorf("-list output lacks E10:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"-campaign", "-json", "-runs", "300", "-workers", "2"}, &buf); err != nil {
		t.Fatalf("-campaign: %v", err)
	}
	for _, want := range []string{`"id": "campaign"`, `"by-executor"`, `"decision-rounds"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("campaign JSON lacks %s", want)
		}
	}
	if err := run([]string{"-only", "E99"}, &buf); err == nil {
		t.Error("unknown -only id must error")
	}
}

// TestParseShard pins the -shard flag's grammar.
func TestParseShard(t *testing.T) {
	if i, k, err := parseShard(""); err != nil || i != 0 || k != 0 {
		t.Fatalf("empty spec = (%d, %d, %v), want unsharded", i, k, err)
	}
	if i, k, err := parseShard("2/5"); err != nil || i != 2 || k != 5 {
		t.Fatalf("2/5 = (%d, %d, %v)", i, k, err)
	}
	for _, bad := range []string{"3", "a/b", "1/", "/4", "-1/4", "4/4", "5/4", "1/0", "1/-2"} {
		if _, _, err := parseShard(bad); err == nil {
			t.Errorf("parseShard(%q) accepted", bad)
		}
	}
}

func TestParseParams(t *testing.T) {
	if p, err := parseParams(""); err != nil || p != nil {
		t.Fatalf("empty spec = (%v, %v), want no overrides", p, err)
	}
	for _, spec := range []string{"n=8,m=4", " n = 8 , m=4 "} {
		if p, err := parseParams(spec); err != nil || len(p) != 2 || p["n"] != 8 || p["m"] != 4 {
			t.Errorf("parseParams(%q) = (%v, %v), want n=8 m=4", spec, p, err)
		}
	}
	for _, bad := range []string{"n", "n=x", "=3", "n=8,n=9", "n=8,", "n=1.5"} {
		if _, err := parseParams(bad); err == nil {
			t.Errorf("parseParams(%q) accepted", bad)
		}
	}
	// A key some selected experiment lacks is refused before any runs:
	// E2 has no defaults at all.
	var buf bytes.Buffer
	if err := run([]string{"-only", "E1,E2", "-params", "n=4"}, &buf); !errors.Is(err, kset.ErrBadParams) || buf.Len() != 0 {
		t.Errorf("-only E1,E2 -params n=4: err = %v, output %q; want ErrBadParams and nothing printed", err, buf.String())
	}
	if err := run([]string{"-only", "E3", "-params", "m=-1"}, &buf); !errors.Is(err, kset.ErrBadParams) {
		t.Errorf("-params m=-1: err = %v, want ErrBadParams", err)
	}
}

// TestNBTableMatchesConditionSize pins E3's sizes table, run far past
// its defaults, to the public counting API: one row per x, each ℓ a
// NB(x,ℓ) cell (ConditionSize) and a %.3f fraction cell
// (ConditionFraction).
func TestNBTableMatchesConditionSize(t *testing.T) {
	const n, m, lMax = 60, 16, 3
	var buf bytes.Buffer
	if err := run([]string{"-only", "E3", "-params", fmt.Sprintf("n=%d,m=%d,lmax=%d", n, m, lMax), "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var reports []struct {
		Sections []struct {
			Name  string `json:"name"`
			Table struct {
				Columns []string   `json:"columns"`
				Rows    [][]string `json:"rows"`
			} `json:"table"`
		} `json:"sections"`
	}
	if err := json.Unmarshal(buf.Bytes(), &reports); err != nil || len(reports) != 1 {
		t.Fatalf("decode: %v (%d reports)", err, len(reports))
	}
	cols := []string{"x"}
	for l := 1; l <= lMax; l++ {
		cols = append(cols, fmt.Sprintf("NB(ℓ=%d)", l), fmt.Sprintf("frac(ℓ=%d)", l))
	}
	var rows [][]string
	for x := 0; x < n; x++ {
		row := []string{fmt.Sprint(x)}
		for l := 1; l <= lMax; l++ {
			nb, err := kset.ConditionSize(n, m, x, l)
			if err != nil {
				t.Fatal(err)
			}
			f, err := kset.ConditionFraction(n, m, x, l)
			if err != nil {
				t.Fatal(err)
			}
			row = append(row, nb.String(), fmt.Sprintf("%.3f", f))
		}
		rows = append(rows, row)
	}
	for _, sec := range reports[0].Sections {
		if sec.Name != "sizes" {
			continue
		}
		if !reflect.DeepEqual(sec.Table.Columns, cols) || !reflect.DeepEqual(sec.Table.Rows, rows) {
			t.Errorf("sizes table:\n got %v %v\nwant %v %v", sec.Table.Columns, sec.Table.Rows, cols, rows)
		}
		return
	}
	t.Fatal("E3 report has no sizes section")
}

// TestCampaignShardsPartitionRuns runs the campaign split -shard i/3 and
// checks the shards cover the unsharded sweep exactly: per-shard run
// counts sum to the full count, and each shard's report is itself
// deterministic run to run.
func TestCampaignShardsPartitionRuns(t *testing.T) {
	type report struct {
		Params struct {
			Scenarios int64 `json:"scenarios"`
			Shard     int   `json:"shard"`
			Shards    int   `json:"shards"`
		} `json:"params"`
		Sections []struct {
			Name  string `json:"name"`
			Table struct {
				Rows [][]string `json:"rows"`
			} `json:"table"`
		} `json:"sections"`
	}
	runsOf := func(t *testing.T, raw []byte) int64 {
		t.Helper()
		var r report
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatalf("decode report: %v\n%s", err, raw)
		}
		for _, sec := range r.Sections {
			if sec.Name != "totals" {
				continue
			}
			for _, row := range sec.Table.Rows {
				if row[0] == "runs" {
					n, err := strconv.ParseInt(row[1], 10, 64)
					if err != nil {
						t.Fatal(err)
					}
					return n
				}
			}
		}
		t.Fatalf("no runs row in report:\n%s", raw)
		return 0
	}

	var buf bytes.Buffer
	args := []string{"-campaign", "-json", "-runs", "120", "-workers", "2"}
	if err := run(args, &buf); err != nil {
		t.Fatalf("unsharded: %v", err)
	}
	total := runsOf(t, buf.Bytes())

	var sum int64
	for i := 0; i < 3; i++ {
		spec := fmt.Sprintf("%d/3", i)
		var first, second bytes.Buffer
		if err := run(append(args, "-shard", spec), &first); err != nil {
			t.Fatalf("shard %s: %v", spec, err)
		}
		if err := run(append(args, "-shard", spec), &second); err != nil {
			t.Fatalf("shard %s rerun: %v", spec, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("shard %s report not deterministic across runs", spec)
		}
		sum += runsOf(t, first.Bytes())
	}
	if sum != total {
		t.Fatalf("shard runs sum to %d, unsharded ran %d", sum, total)
	}
	if err := run([]string{"-campaign", "-shard", "9/4"}, &buf); err == nil {
		t.Error("-shard 9/4 must error")
	}
}

// TestCampaignReportMetricsFold pins the cross-process merge story end to
// end at the CLI layer: each sharded campaign report embeds its raw
// accumulator under "metrics" (the field ksetd's POST /v1/merge folds
// by), and merging the K shard accumulators reproduces the unsharded
// report's metrics byte for byte.
func TestCampaignReportMetricsFold(t *testing.T) {
	metricsOf := func(t *testing.T, raw []byte) json.RawMessage {
		t.Helper()
		var r struct {
			Metrics json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatalf("decode report: %v", err)
		}
		if len(r.Metrics) == 0 {
			t.Fatalf("report carries no metrics field:\n%s", raw)
		}
		// The report writer indents, so compact before byte comparisons.
		var compact bytes.Buffer
		if err := json.Compact(&compact, r.Metrics); err != nil {
			t.Fatal(err)
		}
		return compact.Bytes()
	}

	args := []string{"-campaign", "-json", "-runs", "120", "-workers", "2"}
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("unsharded: %v", err)
	}
	want := metricsOf(t, buf.Bytes())

	merged := &kset.Accumulator{}
	for i := 0; i < 3; i++ {
		buf.Reset()
		if err := run(append(args, "-shard", fmt.Sprintf("%d/3", i)), &buf); err != nil {
			t.Fatalf("shard %d/3: %v", i, err)
		}
		acc := &kset.Accumulator{}
		if err := json.Unmarshal(metricsOf(t, buf.Bytes()), acc); err != nil {
			t.Fatalf("shard %d metrics decode: %v", i, err)
		}
		merged.Merge(acc)
	}
	got, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(want)) {
		t.Fatalf("merged shard metrics differ from unsharded metrics\n%s\nvs\n%s", got, want)
	}
}
