package experiments

import (
	"fmt"
	"maps"

	"kset"
)

// Params is an experiment's declarative parameter set: named integers
// ("n", "m", "t", "k", "d", "l", "trials", "seed", …) a Spec's runner
// reads. Parameters marshal as a JSON object with sorted keys, so a
// report's provenance is machine-diffable alongside its data.
type Params map[string]int

// Spec is one registered experiment: identity, paper anchor, default
// parameters and the runner that produces its Report. The registry of
// Specs is the declarative face of the evaluation — consumers enumerate
// it (cmd/experiments -list), parameterize it (Spec.With) and execute
// it on the Campaign/Sweep infrastructure via Run.
type Spec struct {
	// ID is the experiment identifier ("E1".."E11").
	ID string `json:"id"`
	// Title describes the paper artifact reproduced.
	Title string `json:"title"`
	// Paper anchors the experiment to the paper's sections and theorems.
	Paper string `json:"paper"`
	// Defaults are the parameters All and cmd/experiments run with.
	Defaults Params `json:"defaults,omitempty"`
	// Run executes the experiment with the given parameters.
	Run func(Params) Report `json:"-"`
}

// With returns a copy of the spec's Defaults with the overrides applied:
// the one way to run a registered experiment off its defaults. Every
// override must name a key of the Defaults and, "seed" excepted, be
// non-negative: the runners size loops and slices by these values. Either
// violation is an error wrapping kset.ErrBadParams.
func (s Spec) With(overrides Params) (Params, error) {
	for key, v := range overrides {
		if _, ok := s.Defaults[key]; !ok {
			return nil, fmt.Errorf("experiment %s has no parameter %q: %w", s.ID, key, kset.ErrBadParams)
		}
		if v < 0 && key != "seed" {
			return nil, fmt.Errorf("experiment %s: %s=%d is negative: %w", s.ID, key, v, kset.ErrBadParams)
		}
	}
	out := maps.Clone(s.Defaults)
	maps.Copy(out, overrides)
	return out, nil
}

// registry lists every experiment in presentation order. Runners live in
// experiments.go (E1–E5), experiments2.go (E6–E10) and faultsweep.go
// (E11). It is populated
// by init: the runners call back into Lookup (via begin), so a composite
// literal would form an initialization cycle.
var registry []Spec

func init() {
	registry = []Spec{
		{
			ID: "E1", Title: "Figure 1 — the lattice of (x,ℓ)-legal condition sets",
			Paper:    "§3, Theorems 4–9",
			Defaults: Params{"n": 4, "m": 3, "xmax": 2, "lmax": 3},
			Run:      runE1,
		},
		{
			ID: "E2", Title: "Table 1 + Theorems 14/15 — (x,ℓ) vs (x+1,ℓ+1) incomparability",
			Paper: "§3 Table 1, Appendix B",
			Run:   runE2,
		},
		{
			ID: "E3", Title: "Theorems 3/13 — condition sizes NB(x,ℓ)",
			Paper:    "§5, §7",
			Defaults: Params{"n": 8, "m": 4, "lmax": 3},
			Run:      runE3,
		},
		{
			ID: "E4", Title: "Theorem 10 / Lemmas 1–2 — round bounds by scenario",
			Paper:    "§6, Theorem 10",
			Defaults: Params{"n": 8, "m": 4, "t": 5, "k": 2, "d": 3, "l": 1, "trials": 500, "seed": 17},
			Run:      runE4,
		},
		{
			ID: "E5", Title: "Section 5 — condition size vs decision rounds across d",
			Paper:    "§5",
			Defaults: Params{"n": 8, "m": 4, "t": 5, "k": 1, "l": 1},
			Run:      runE5,
		},
		{
			ID: "E6", Title: "Introduction — the (k, ⌊(d+ℓ−1)/k⌋+1) pairs",
			Paper:    "§1",
			Defaults: Params{"n": 12, "m": 4, "t": 9, "d": 6, "l": 1, "kmax": 4},
			Run:      runE6,
		},
		{
			ID: "E7", Title: "Section 8 — early decision: rounds vs actual crashes f",
			Paper:    "§8",
			Defaults: Params{"n": 8, "m": 4, "t": 6, "k": 1},
			Run:      runE7,
		},
		{
			ID: "E8", Title: "Abstract — condition-based vs classical baseline",
			Paper:    "abstract, §6",
			Defaults: Params{"n": 8, "m": 4, "t": 6, "k": 2},
			Run:      runE8,
		},
		{
			ID: "E9", Title: "Worst cases — adversaries meeting the bounds; exhaustive safety",
			Paper:    "§6.2",
			Defaults: Params{"n": 6, "m": 4, "t": 4, "k": 1, "d": 2},
			Run:      runE9,
		},
		{
			ID: "E10", Title: "Section 4 — asynchronous condition-based ℓ-set agreement",
			Paper:    "§4, Theorems 8/9",
			Defaults: Params{"n": 6, "m": 4, "x": 2, "l": 2},
			Run:      runE10,
		},
		{
			ID: "E11", Title: "Beyond the model — fault-injected links: loss × delay sweep",
			Paper:    "§6.2 (model), stressed beyond it",
			Defaults: Params{"n": 8, "m": 4, "t": 5, "k": 2, "d": 3, "l": 1, "trials": 12, "seed": 41},
			Run:      runE11,
		},
	}
}

// Registry returns the experiment specs in presentation order. The slice
// is a copy; the specs' Defaults are shared and must not be mutated (use
// Spec.With).
func Registry() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	return out
}

// Lookup returns the spec with the given ID.
func Lookup(id string) (Spec, bool) {
	for _, s := range registry {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// Run executes the experiments with the given IDs, in registry order,
// each with its Defaults and the overrides applied (Spec.With); an empty
// id list runs them all. An unknown ID or an override some selected spec
// refuses is an error, reported before any experiment runs.
func Run(ids []string, overrides Params) ([]Report, error) {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		if _, ok := Lookup(id); !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		want[id] = true
	}
	var selected []Spec
	for _, s := range registry {
		if len(want) > 0 && !want[s.ID] {
			continue
		}
		p, err := s.With(overrides)
		if err != nil {
			return nil, err
		}
		s.Defaults = p
		selected = append(selected, s)
	}
	reports := make([]Report, len(selected))
	for i, s := range selected {
		reports[i] = s.Run(s.Defaults)
	}
	return reports, nil
}

// All runs every experiment with its default configuration.
func All() []Report {
	reports, _ := Run(nil, nil)
	return reports
}

// begin stamps a fresh, OK report with the spec's identity and the
// parameters this run uses.
func begin(id string, p Params) Report {
	s, _ := Lookup(id)
	return Report{ID: s.ID, Title: s.Title, Paper: s.Paper, Params: p, OK: true}
}
