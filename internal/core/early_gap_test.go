package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kset/internal/adversary"
	"kset/internal/condition"
	"kset/internal/rounds"
	"kset/internal/vector"
)

var update = flag.Bool("update", false, "rewrite testdata/early_gap_v1.json from the early-deciding Runner")

// gapSet is the versioned witness set of the early variant's extra round:
// every run of one exhaustively enumerated configuration that decides
// later than the paper's early bound min(⌊f/k⌋+2, ⌊t/k⌋+1). A guard that
// closes the gap empties it, one that widens it grows it; either lands as
// a reviewed diff of the file, recorded as a new version.
type gapSet struct {
	Version     int         `json:"version"`
	Format      string      `json:"format"`
	Description string      `json:"description"`
	Vectors     []gapVector `json:"vectors"`
}

// gapVector is one over-bound run: its input, its crashes as
// id@round:after (empty when failure-free), the input's membership in the
// condition, the paper's bound and the round the run decided in.
type gapVector struct {
	Name        string `json:"name"`
	Input       string `json:"input"`
	Crashes     string `json:"crashes"`
	InCondition bool   `json:"in_condition"`
	Bound       int    `json:"bound"`
	Round       int    `json:"round"`
}

const gapFile = "early_gap_v1.json"

// TestEarlyGapWitnesses enumerates every input and every
// adversary.ExhaustiveFamily pattern, in the family's order, at
// (n, t, k, d, ℓ) = (4, 3, 1, 1, 1), m = 2 — 551 696 runs of the
// early-deciding algorithm on one Runner — and holds the runs deciding
// past min(⌊f/k⌋+2, ⌊t/k⌋+1) to the pinned set.
func TestEarlyGapWitnesses(t *testing.T) {
	p := Params{N: 4, T: 3, K: 1, D: 1, L: 1}
	const m = 2
	c := condition.MustNewMax(p.N, m, p.X(), p.L)
	var got []gapVector
	exhaust(t, p, c, m, adversary.ExhaustiveFamily, func(e *exhaustive, input vector.Vector, inC bool, fp rounds.FailurePattern) {
		bound := min(fp.NumCrashes()/p.K+2, p.T/p.K+1)
		if round := e.run("early", input, fp).MaxDecisionRound(); round > bound {
			v := gapVector{
				Input:       strings.Trim(fmt.Sprint(input), "[]"),
				Crashes:     crashSpec(fp),
				InCondition: inC,
				Bound:       bound,
				Round:       round,
			}
			v.Name = "input=" + strings.ReplaceAll(v.Input, " ", "") + "/failure-free"
			if v.Crashes != "" {
				v.Name = strings.Replace(v.Name, "failure-free", "crashes="+v.Crashes, 1)
			}
			got = append(got, v)
		}
	})

	path := filepath.Join("testdata", gapFile)
	if *update {
		set := gapSet{
			Version: 1,
			Format:  "application/json",
			Description: "Runs of the early-deciding condition-based algorithm at (n, t, k, d, l) = (4, 3, 1, 1, 1), m = 2, " +
				"over every input and every adversary.Enumerate pattern, that decide later than min(floor(f/k)+2, floor(t/k)+1); " +
				"crashes are id@round:after. Regenerate with go test ./internal/core -run TestEarlyGapWitnesses -update",
			Vectors: got,
		}
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want gapSet
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Vectors) {
		t.Errorf("over-bound runs diverge from %s:\ngot  %+v\nwant %+v", gapFile, got, want.Vectors)
	}
}

// crashSpec renders a pattern's crashes as id@round:after, by process id.
func crashSpec(fp rounds.FailurePattern) string {
	ids := make([]rounds.ProcessID, 0, len(fp.Crashes))
	for id := range fp.Crashes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		cr := fp.Crashes[id]
		parts[i] = fmt.Sprintf("%d@%d:%d", id, cr.Round, cr.AfterSends)
	}
	return strings.Join(parts, ",")
}
