package faultnet_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kset/internal/faultnet"
	"kset/internal/rounds"
)

var update = flag.Bool("update", false, "rewrite testdata/draws_v1.json from the transport under test")

// drawSet is the versioned vector set pinning the transport's seeded draw
// stream: what every (plan, seed, n) delivers, round by round. A rewrite
// of the transport is held to it draw for draw; a deliberate change of
// the stream records a draws_v2.json beside it instead of editing v1.
type drawSet struct {
	Version     int          `json:"version"`
	Description string       `json:"description"`
	Vectors     []drawVector `json:"vectors"`
}

type drawVector struct {
	Name   string      `json:"name"`
	Rounds []drawRound `json:"rounds"`
}

// drawRound is one round of one vector: the Deliver row of every
// destination 1..n, space-separated ("-" for a crashed or halted
// destination the engine skips). Position i of a row is sender i+1: "."
// for no arrival, otherwise the digit of the round the surfacing copy was
// sent in (the payload is the (sender, send round) tag itself, and its
// sender is checked against the position). The counters are read after
// the round's last Deliver.
type drawRound struct {
	Rows      string `json:"rows"`
	Delivered int64  `json:"delivered"`
	Lost      int64  `json:"lost"`
	Delayed   int64  `json:"delayed"`
	Dup       int64  `json:"dup"`
}

// drawTag is the payload of the pinned runs: who sent it, and when.
type drawTag struct{ src, round int }

const drawsFile = "draws_v1.json"

func drawPlans() []struct {
	name string
	plan *faultnet.Plan
} {
	storm := faultnet.LinkFaults{Loss: 0.2, DelayProb: 0.2, MaxDelay: 2, Duplicate: 0.1}
	return []struct {
		name string
		plan *faultnet.Plan
	}{
		{"loss", &faultnet.Plan{Seed: 11, Default: faultnet.LinkFaults{Loss: 0.3}}},
		{"delay1", &faultnet.Plan{Seed: 12, Default: faultnet.LinkFaults{DelayProb: 0.4, MaxDelay: 1}}},
		{"delay3", &faultnet.Plan{Seed: 13, Default: faultnet.LinkFaults{DelayProb: 0.4, MaxDelay: 3}}},
		{"duplicate", &faultnet.Plan{Seed: 14, Default: faultnet.LinkFaults{Duplicate: 0.3, MaxDelay: 2}}},
		{"storm-reorder", &faultnet.Plan{Seed: 15, Default: storm, Reorder: 0.5}},
		{"link-override", &faultnet.Plan{Seed: 16, Default: faultnet.LinkFaults{Loss: 0.1},
			Links: map[faultnet.Link]faultnet.LinkFaults{
				{From: 1, To: 2}: {Loss: 1},
				{From: 2, To: 1}: {DelayProb: 1, MaxDelay: 2},
				{From: 3, To: 3}: {},
				{From: 3, To: 1}: {Loss: 0.5, Duplicate: 0.5, MaxDelay: 3},
			}}},
		{"scheduled", &faultnet.Plan{Seed: 17, Default: storm, Reorder: 0.3,
			Scheduled: []faultnet.Fault{
				{Round: 1, From: 1, To: 2, Kind: faultnet.Drop},
				{Round: 1, From: 1, To: 3, Kind: faultnet.Delay, Delay: 3},
				{Round: 1, From: 3, To: 1, Kind: faultnet.Duplicate, Delay: 2},
				{Round: 2, From: 2, To: 3, Kind: faultnet.Delay, Delay: 2}, // p2 is crashed by round 4: arrives alone
				{Round: 2, From: 3, To: 1, Kind: faultnet.Delay, Delay: 1}, // beside p3's round-3 copy: shadowed
				{Round: 2, From: 3, To: 2, Kind: faultnet.Drop},
				{Round: 2, From: 3, To: 2, Kind: faultnet.Duplicate, Delay: 1}, // collision: the last entry wins
				{Round: 3, From: 3, To: 3, Kind: faultnet.Delay, Delay: 2},
			}}},
		{"p0", &faultnet.Plan{Seed: 18, Default: faultnet.LinkFaults{MaxDelay: 2}}},
		{"p1-loss", &faultnet.Plan{Seed: 19, Default: faultnet.LinkFaults{Loss: 1}, Reorder: 1}},
		{"p1-delay-dup", &faultnet.Plan{Seed: 20, Default: faultnet.LinkFaults{DelayProb: 1, MaxDelay: 2, Duplicate: 1}, Reorder: 1}},
	}
}

// driveDraws plays the engine's part over a fixed adversary: p2 crashes
// in round 3 after ⌈n/2⌉ sends along a rotated order, p1 decides in
// round 3 and halts, and in systems of more than three processes p_n is
// initially crashed (a Send of limit 0) and p_{n−1} crashes in round 2
// after one send.
func driveDraws(t *testing.T, tr *faultnet.Transport, n, maxRounds int) []drawRound {
	identity := make([]rounds.ProcessID, n)
	rotated := make([]rounds.ProcessID, n)
	for i := range identity {
		identity[i] = rounds.ProcessID(i + 1)
		rotated[i] = rounds.ProcessID((i+2)%n + 1)
	}
	crashRound := make([]int, n+1)
	crashRound[2] = 3
	if n > 3 {
		crashRound[n], crashRound[n-1] = 1, 2
	}
	limit := func(src int) int {
		switch src {
		case 2:
			return (n + 1) / 2
		case n - 1:
			return 1
		}
		return 0
	}
	alive := func(id, r int) bool { return crashRound[id] == 0 || crashRound[id] > r }

	out := make([]drawRound, 0, maxRounds)
	row := make([]any, n)
	tr.Reset(n)
	for r := 1; r <= maxRounds; r++ {
		tr.BeginRound(r)
		for src := 1; src <= n; src++ {
			if src == 1 && r > 3 {
				continue // halted
			}
			order, lim := identity, n
			if src == 2 && r >= 2 {
				order = rotated
			}
			switch {
			case crashRound[src] == r:
				lim = limit(src)
			case !alive(src, r):
				continue
			}
			tr.Send(r, rounds.ProcessID(src), drawTag{src, r}, order, lim)
		}
		var rows []string
		for dst := 1; dst <= n; dst++ {
			if !alive(dst, r) || (dst == 1 && r > 3) {
				rows = append(rows, "-")
				continue
			}
			for i := range row {
				row[i] = "stale"
			}
			tr.Deliver(r, rounds.ProcessID(dst), row)
			var sb strings.Builder
			for i, p := range row {
				switch tag := p.(type) {
				case nil:
					sb.WriteByte('.')
				case drawTag:
					if tag.src != i+1 || tag.round < 1 || tag.round > r {
						t.Fatalf("n=%d round %d dst %d: entry %d holds %+v", n, r, dst, i, tag)
					}
					sb.WriteByte(byte('0' + tag.round))
				default:
					t.Fatalf("n=%d round %d dst %d: entry %d left as %v", n, r, dst, i, p)
				}
			}
			rows = append(rows, sb.String())
		}
		lost, delayed, dup := tr.FaultCounts()
		out = append(out, drawRound{strings.Join(rows, " "), tr.Delivered(), lost, delayed, dup})
	}
	return out
}

// TestDrawStreamPinned replays every vector of draws_v1.json on one
// reused Transport — plans, seeds and sizes interleaved, so nothing a
// vector delivers may depend on what ran before it.
func TestDrawStreamPinned(t *testing.T) {
	const maxRounds = 6 // ≥ maxDelay+2 for every plan above
	got := drawSet{
		Version: 1,
		Description: "faultnet.Transport deliveries per (plan, seed, n) under TestDrawStreamPinned's fixed crash adversary; " +
			"regenerate with go test ./internal/faultnet -run TestDrawStreamPinned -update",
	}
	tr := &faultnet.Transport{}
	for _, pl := range drawPlans() {
		for _, seed := range []uint64{0, 1, 0x9E3779B97F4A7C15} {
			for _, n := range []int{3, 8, 17} {
				if err := tr.SetPlan(pl.plan, n); err != nil {
					t.Fatalf("%s: %v", pl.name, err)
				}
				tr.Reseed(seed)
				got.Vectors = append(got.Vectors, drawVector{
					Name:   fmt.Sprintf("%s/seed=%#x/n=%d", pl.name, seed, n),
					Rounds: driveDraws(t, tr, n, maxRounds),
				})
			}
		}
	}

	path := filepath.Join("testdata", drawsFile)
	if *update {
		// One round per line: compact enough to diff, small enough to commit.
		var sb strings.Builder
		desc, _ := json.Marshal(got.Description)
		fmt.Fprintf(&sb, "{\n \"version\": %d,\n \"description\": %s,\n \"vectors\": [", got.Version, desc)
		for i, v := range got.Vectors {
			fmt.Fprintf(&sb, "%s\n  {\"name\": %q, \"rounds\": [", strings.Repeat(",", min(i, 1)), v.Name)
			for r, round := range v.Rounds {
				line, _ := json.Marshal(round)
				fmt.Fprintf(&sb, "%s\n   %s", strings.Repeat(",", min(r, 1)), line)
			}
			sb.WriteString("\n  ]}")
		}
		sb.WriteString("\n ]\n}\n")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want drawSet
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if want.Version != got.Version || len(want.Vectors) != len(got.Vectors) {
		t.Fatalf("%s holds version %d with %d vectors, the test drives version %d with %d",
			path, want.Version, len(want.Vectors), got.Version, len(got.Vectors))
	}
	for i, w := range want.Vectors {
		g := got.Vectors[i]
		if w.Name != g.Name || len(w.Rounds) != len(g.Rounds) {
			t.Fatalf("vector %d is %q (%d rounds), the test drives %q (%d rounds)", i, w.Name, len(w.Rounds), g.Name, len(g.Rounds))
		}
		for r := range w.Rounds {
			if w.Rounds[r] != g.Rounds[r] {
				t.Errorf("%s round %d:\n got %+v\nwant %+v", w.Name, r+1, g.Rounds[r], w.Rounds[r])
				break
			}
		}
	}
}
