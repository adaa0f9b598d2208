package experiments

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"kset"
)

// TestAllExperimentsVerify runs the full suite: every report must come back
// with every checked claim holding, sections populated, and a JSON
// encoding that round-trips the identity fields.
func TestAllExperimentsVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	reports := All()
	if want := len(Registry()); len(reports) != want {
		t.Fatalf("All returned %d reports, registry has %d", len(reports), want)
	}
	for _, r := range reports {
		if !r.OK {
			t.Errorf("%s (%s) failed:\n%s", r.ID, r.Title, r.String())
		}
		if len(r.Sections) == 0 {
			t.Errorf("%s produced no sections", r.ID)
		}
		if !strings.Contains(r.String(), r.ID) {
			t.Errorf("%s: String() lacks the id", r.ID)
		}
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("%s: marshal: %v", r.ID, err)
		}
		var back Report
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", r.ID, err)
		}
		if back.ID != r.ID || back.Title != r.Title || back.OK != r.OK ||
			len(back.Sections) != len(r.Sections) {
			t.Errorf("%s: JSON round-trip mutated the report", r.ID)
		}
	}
}

// TestRegistryShape pins the registry's identity invariants: stable E1..E11
// order, unique IDs, resolvable lookups, runnable specs.
func TestRegistryShape(t *testing.T) {
	specs := Registry()
	if len(specs) != 11 {
		t.Fatalf("registry has %d specs, want 11", len(specs))
	}
	seen := make(map[string]bool)
	for i, s := range specs {
		if want := "E" + string(rune('1'+i)); i < 9 && s.ID != want {
			t.Errorf("spec %d has ID %s, want %s", i, s.ID, want)
		}
		if seen[s.ID] {
			t.Errorf("duplicate ID %s", s.ID)
		}
		seen[s.ID] = true
		if s.Title == "" || s.Paper == "" || s.Run == nil {
			t.Errorf("%s: incomplete spec %+v", s.ID, s)
		}
		got, ok := Lookup(s.ID)
		if !ok || got.Title != s.Title {
			t.Errorf("Lookup(%s) = %+v, %v", s.ID, got, ok)
		}
	}
	if specs[9].ID != "E10" || specs[10].ID != "E11" {
		t.Errorf("last specs are %s, %s, want E10, E11", specs[9].ID, specs[10].ID)
	}
	if _, ok := Lookup("E99"); ok {
		t.Error("Lookup(E99) unexpectedly succeeded")
	}
}

// TestRunSelection checks the id-list execution path.
func TestRunSelection(t *testing.T) {
	reports, err := Run([]string{"E2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].ID != "E2" {
		t.Fatalf("Run([E2]) = %v", reports)
	}
	if _, err := Run([]string{"E2", "nope"}, nil); err == nil {
		t.Error("Run with unknown id must error")
	}
	if _, err := Run([]string{"E1", "E2"}, Params{"n": 4}); !errors.Is(err, kset.ErrBadParams) {
		t.Errorf("override E2 lacks: err = %v, want ErrBadParams", err)
	}
	reports, err = Run([]string{"E3"}, Params{"n": 3, "lmax": 1})
	if err != nil || len(reports) != 1 || reports[0].Params["n"] != 3 || reports[0].Params["m"] != 4 {
		t.Fatalf("Run([E3], n=3 lmax=1) = %v, %v; want the override over the defaults", reports, err)
	}
}

// TestSpecOverrides pins the one override rule every surface applies
// (Spec.With): an unknown key or a negative value ("seed" excepted) is
// ErrBadParams, and every key at 0 and at 1 runs to a report — OK or
// failed, never a panic.
func TestSpecOverrides(t *testing.T) {
	for _, sp := range Registry() {
		if _, err := sp.With(Params{"no-such-parameter": 0}); !errors.Is(err, kset.ErrBadParams) {
			t.Errorf("%s unknown key: err = %v, want ErrBadParams", sp.ID, err)
		}
		for key := range sp.Defaults {
			if _, err := sp.With(Params{key: -1}); (key != "seed") != errors.Is(err, kset.ErrBadParams) {
				t.Errorf("%s %s=-1: err = %v", sp.ID, key, err)
			}
			for v := 0; v <= 1; v++ {
				p, err := sp.With(Params{key: v})
				if err != nil {
					t.Fatalf("%s %s=%d: %v", sp.ID, key, v, err)
				}
				if r := sp.Run(p); r.ID != sp.ID || r.Params[key] != v {
					t.Errorf("%s %s=%d: report %s with params %v", sp.ID, key, v, r.ID, r.Params)
				}
			}
		}
	}
}

// TestE3PastDomainCap runs E3 past the 64-value bitset cap: its closed
// form needs no bitsets, so it must verify, skipping the brute-force check
// that would build a bitset condition.
func TestE3PastDomainCap(t *testing.T) {
	e3, _ := Lookup("E3")
	for _, o := range []Params{{"n": 1, "m": 100, "lmax": 1}, {"n": 60, "m": 16, "lmax": 3}} {
		p, err := e3.With(o)
		if err != nil {
			t.Fatal(err)
		}
		if r := e3.Run(p); !r.OK {
			t.Errorf("E3 at %v failed:\n%s", o, r)
		}
	}
}

// TestBruteForceable pins E3's brute-force rule: m within the bitset cap
// and mⁿ ≤ 65 536, with no overflow at large n.
func TestBruteForceable(t *testing.T) {
	for _, tc := range []struct {
		n, m int
		want bool
	}{
		{8, 4, true}, {16, 2, true}, {17, 2, false}, {2, 64, true}, {3, 64, false},
		{1, 65, false}, {1, 100, false}, {60, 16, false}, {1000, 64, false}, {1000, 1, true}, {0, 4, true},
	} {
		if got := bruteForceable(tc.n, tc.m); got != tc.want {
			t.Errorf("bruteForceable(%d, %d) = %v, want %v", tc.n, tc.m, got, tc.want)
		}
	}
}

// TestReportString pins the status markers and table rendering.
func TestReportString(t *testing.T) {
	ok := Report{ID: "EX", Title: "t", OK: true}
	s := ok.Section("demo")
	tbl := s.AddTable("col-a", "b")
	tbl.Row("1", "2")
	s.Note("a note")
	text := ok.String()
	for _, want := range []string{"VERIFIED", "col-a", "a note", "-- demo"} {
		if !strings.Contains(text, want) {
			t.Errorf("String() lacks %q:\n%s", want, text)
		}
	}
	bad := Report{ID: "EX", Title: "t"}
	if !strings.Contains(bad.String(), "FAILED") {
		t.Error("want FAILED marker")
	}
}

// TestExperimentConfigErrors exercises the error paths of parameterized
// experiments: a bad grid or a domain past the bitset cap must fail the
// report, not panic.
func TestExperimentConfigErrors(t *testing.T) {
	spec, ok := Lookup("E1")
	if !ok {
		t.Fatal("E1 missing")
	}
	for _, o := range []Params{
		{"n": 3, "m": 2, "xmax": 5}, // xMax ≥ n
		{"m": 100},
	} {
		p, err := spec.With(o)
		if err != nil {
			t.Fatal(err)
		}
		r := spec.Run(p)
		if r.OK || r.Err == "" {
			t.Errorf("E1 at %v must fail its report:\n%s", o, r)
		}
		if r.Params["m"] != o["m"] {
			t.Errorf("report params = %v, want the override echoed", r.Params)
		}
	}
}
