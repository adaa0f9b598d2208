package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// golden.json pins, per workload at the pinned seed, what the first
// goldenOps ops must produce: the sha256 of their concatenated stats JSON
// and the exact counts the paper's cost measures are built from. A change
// that moves any of them changed what the program computes, not how fast.
// Other seeds fall back to pass-to-pass and cross-plane identity only.
//
//go:embed golden.json
var goldenJSON []byte

const (
	goldenSeed = 1
	goldenPath = "bench/golden.json" // from the repository root, where -update-golden runs
)

// goldenSet is the versioned vector file.
type goldenSet struct {
	Version     string         `json:"version"`
	Format      string         `json:"format"`
	Description string         `json:"description"`
	Vectors     []goldenVector `json:"vectors"`
}

// goldenVector pins one workload's op prefix.
type goldenVector struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Ops         int    `json:"ops"`
	StatsSHA256 string `json:"stats_sha256"`
	// RoundsPerRun and MsgsPerRun are the prefix's end-to-end counts,
	// printed the way the benchmark prints them, for the reader; the
	// integer tallies below are what is compared.
	RoundsPerRun string `json:"rounds_per_run"`
	MsgsPerRun   string `json:"msgs_per_run"`
	Tally        tally  `json:"tally"`
}

func vectorOf(p *passRecord) goldenVector {
	return goldenVector{
		Workload: p.Workload, Seed: p.Seed, Ops: p.GoldenOps, StatsSHA256: p.GoldenSHA,
		RoundsPerRun: strconv.FormatFloat(p.Golden.roundsPerRun(), 'g', -1, 64),
		MsgsPerRun:   strconv.FormatFloat(p.Golden.msgsPerRun(), 'g', -1, 64),
		Tally:        p.Golden,
	}
}

// goldenFor returns the pinned vector of a workload at a seed, if any.
func goldenFor(workload string, seed int64) (goldenVector, bool) {
	var set goldenSet
	if err := json.Unmarshal(goldenJSON, &set); err != nil {
		return goldenVector{}, false
	}
	for _, v := range set.Vectors {
		if v.Workload == workload && v.Seed == seed {
			return v, true
		}
	}
	return goldenVector{}, false
}

// updateGolden re-pins golden.json from one short pass of every workload.
func (d *driver) updateGolden() error {
	d.seed = goldenSeed
	set := goldenSet{
		Version:     "1",
		Format:      "application/json",
		Description: "bench workloads at seed 1: sha256 of the first ops' CampaignStats JSON, concatenated, and their exact tallies",
	}
	for _, w := range workloads {
		rec := &passRecord{}
		if err := d.spawn(w, rec, "-pass", "1", "-ops", strconv.Itoa(w.goldenOps)); err != nil {
			return err
		}
		if rec.Failed > 0 {
			return fmt.Errorf("%s: %d ops failed: %v", w.name, rec.Failed, rec.Failures)
		}
		set.Vectors = append(set.Vectors, vectorOf(rec))
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Dir(goldenPath)); err != nil {
		return fmt.Errorf("-update-golden runs from the repository root: %w", err)
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
