package async

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kset/internal/condition"
	"kset/internal/vector"
)

var update = flag.Bool("update", false, "rewrite testdata/outcomes_v1.json from the Runner under test")

// outcomeSet is the versioned vector set pinning what a run decides: the
// Outcome of every (condition, input, crashes, budget, seed, memory) below.
// A rewrite of the scheduler or of a substrate is held to it process for
// process; a deliberate change of the schedule records an outcomes_v2.json
// beside it instead of editing v1.
type outcomeSet struct {
	Version     int             `json:"version"`
	Description string          `json:"description"`
	Vectors     []outcomeVector `json:"vectors"`
}

// outcomeVector is one run. Name carries the configuration, Input and
// Crashes spell out what the name's generator drew (crashes as id:b or
// id:a, before or after the write), Decided is Outcome.Decided entry by
// entry and Undecided the ids that gave up.
type outcomeVector struct {
	Name      string `json:"name"`
	Input     string `json:"input"`
	Crashes   string `json:"crashes"`
	Decided   string `json:"decided"`
	Undecided string `json:"undecided"`
}

const outcomesFile = "outcomes_v1.json"

// outcomeShapes are the pinned system sizes. At n=2 the only resilience
// with a non-trivial condition is x=1, which message passing (x < n/2)
// does not admit; the other three run on all three memory kinds.
var outcomeShapes = []struct{ n, m, x, l int }{
	{2, 2, 1, 1}, {4, 3, 1, 1}, {8, 4, 2, 1}, {13, 5, 3, 2},
}

// drawInput draws inputs until one's membership in c is as asked.
func drawInput(t *testing.T, rng *rand.Rand, c condition.Condition, member bool) vector.Vector {
	in := vector.New(c.N())
	for try := 0; try < 10000; try++ {
		for i := range in {
			in[i] = vector.Value(1 + rng.Intn(c.M()))
		}
		if c.Contains(in) == member {
			return in
		}
	}
	t.Fatalf("n=%d: no input with membership %v in 10000 draws", c.N(), member)
	return nil
}

type outcomeCase struct {
	name string
	cfg  Config
}

// outcomeCases builds the run configurations, in file order. The explicit
// condition of a shape ("compiled" in the file's case names) is a
// 16-member sample of its max condition — a subset of a legal condition
// under the same recognizer is legal — and its outside input is a member with p_n's entry changed, so that views hiding
// that entry still complete into the condition: some runs decide on a
// crash and block without it.
func outcomeCases(t *testing.T) []outcomeCase {
	var cases []outcomeCase
	memories := []struct {
		name string
		kind MemoryKind
	}{{"mutex", MutexMemory}, {"waitfree", WaitFreeMemory}, {"msgpassing", MessagePassingMemory}}
	for _, sh := range outcomeShapes {
		n, x := sh.n, sh.x
		rng := rand.New(rand.NewSource(int64(1000 + n)))
		maxC := condition.MustNewMax(n, sh.m, x, sh.l)
		e := condition.MustNewExplicit(n, sh.m, sh.l)
		var member vector.Vector
		for e.Size() < min(16, 1<<(n-1)) {
			member = drawInput(t, rng, maxC, true)
			if !e.Contains(member) {
				e.MustAdd(member, maxC.Recognize(member))
			}
		}
		near := member.Clone()
		for e.Contains(near) {
			near[n-1] = near[n-1]%vector.Value(sh.m) + 1
		}
		inputs := []struct {
			name string
			cond condition.Condition
			in   vector.Vector
		}{
			{"max/in", maxC, drawInput(t, rng, maxC, true)},
			{"max/out", maxC, drawInput(t, rng, maxC, false)},
			{"compiled/in", e, member},
			{"compiled/out", e, near},
		}
		crashes := []struct {
			name   string
			points map[int]CrashPoint
		}{
			{"none", nil},
			{"before", map[int]CrashPoint{n: CrashBeforeWrite}},
			{"after", map[int]CrashPoint{1: CrashAfterWrite}},
			{"both", map[int]CrashPoint{n: CrashBeforeWrite, 1: CrashAfterWrite}},
		}
		seed := int64(n)
		for _, in := range inputs {
			for _, cr := range crashes {
				if len(cr.points) > x {
					continue
				}
				for _, budget := range []int{0, 1, 3} {
					seed++
					for _, mem := range memories {
						if mem.kind == MessagePassingMemory && 2*x >= n {
							continue
						}
						cases = append(cases, outcomeCase{
							fmt.Sprintf("n=%d/%s/crash=%s/budget=%d/seed=%d/%s", n, in.name, cr.name, budget, seed, mem.name),
							Config{X: x, Cond: in.cond, Input: in.in, Crashes: cr.points, Seed: seed, ScanBudget: budget, Memory: mem.kind},
						})
					}
				}
			}
		}
	}
	return cases
}

func spaced[T any](xs []T) string {
	return strings.Trim(fmt.Sprint(xs), "[]")
}

// TestOutcomesPinned replays every vector of outcomes_v1.json on one
// reused Runner — sizes, conditions and memory kinds interleaved, so no
// outcome may depend on what ran before it.
func TestOutcomesPinned(t *testing.T) {
	got := outcomeSet{
		Version: 1,
		Description: "async.Runner outcomes per (n, condition, input, crashes, scan budget, seed, memory kind); " +
			"regenerate with go test ./internal/async -run TestOutcomesPinned -update",
	}
	r := NewRunner()
	var out Outcome
	for _, c := range outcomeCases(t) {
		if err := r.RunInto(c.cfg, &out); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var crashes []string
		for id := 1; id <= len(c.cfg.Input); id++ {
			switch c.cfg.Crashes[id] {
			case CrashBeforeWrite:
				crashes = append(crashes, fmt.Sprintf("%d:b", id))
			case CrashAfterWrite:
				crashes = append(crashes, fmt.Sprintf("%d:a", id))
			}
		}
		got.Vectors = append(got.Vectors, outcomeVector{
			Name:      c.name,
			Input:     spaced(c.cfg.Input),
			Crashes:   strings.Join(crashes, " "),
			Decided:   spaced(out.Decided),
			Undecided: spaced(out.Undecided),
		})
	}

	path := filepath.Join("testdata", outcomesFile)
	if *update {
		// One run per line: compact enough to diff, small enough to commit.
		var sb strings.Builder
		desc, _ := json.Marshal(got.Description)
		fmt.Fprintf(&sb, "{\n \"version\": %d,\n \"description\": %s,\n \"vectors\": [", got.Version, desc)
		for i, v := range got.Vectors {
			line, _ := json.Marshal(v)
			fmt.Fprintf(&sb, "%s\n  %s", strings.Repeat(",", min(i, 1)), line)
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
	var want outcomeSet
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if want.Version != got.Version || len(want.Vectors) != len(got.Vectors) {
		t.Fatalf("%s holds version %d with %d vectors, the test drives version %d with %d",
			path, want.Version, len(want.Vectors), got.Version, len(got.Vectors))
	}
	for i, w := range want.Vectors {
		if g := got.Vectors[i]; w != g {
			t.Errorf("vector %d:\n got %+v\nwant %+v", i, g, w)
		}
	}
}
