package kset_test

import (
	"os/exec"
	"strings"
	"testing"
)

// These tests run the commands end to end through the Go toolchain,
// checking the load-bearing markers of their output. They are the closest
// thing to a user smoke test the module has; the walkthroughs of the
// library itself are the Example functions, whose output go test pins.

func runMain(t *testing.T, pkg string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", pkg}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %s %v failed: %v\n%s", pkg, args, err, out)
	}
	return string(out)
}

// TestCmdExperiments runs two experiments off their defaults, in text
// and in the shared -json report encoding: E1, the paper's Figure-1
// lattice, whose report is OK only if every cell verifies, and E3, the
// NB(x,ℓ) tables at 3^5 = 243 vectors, few enough that E3 cross-checks
// every cell against brute force and a mismatch fails the report.
func TestCmdExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the toolchain")
	}
	for _, tc := range []struct {
		id, params string
		text, json []string
	}{
		{"E1", "n=4,m=3,xmax=1,lmax=2", []string{"✓", "[VERIFIED]"}, []string{`"sections"`}},
		{"E3", "n=5,m=3,lmax=2", []string{"NB(x,ℓ)", "[VERIFIED]"}, []string{`"columns"`}},
	} {
		t.Run(tc.id, func(t *testing.T) {
			args := []string{"-only", tc.id, "-params", tc.params}
			out := runMain(t, "./cmd/experiments", args...)
			for _, want := range tc.text {
				if !strings.Contains(out, want) {
					t.Errorf("%s output lacks %q:\n%s", tc.id, want, out)
				}
			}
			out = runMain(t, "./cmd/experiments", append(args, "-json")...)
			for _, want := range append([]string{`"id": "` + tc.id + `"`, `"ok": true`}, tc.json...) {
				if !strings.Contains(out, want) {
					t.Errorf("%s -json output lacks %q:\n%s", tc.id, want, out)
				}
			}
		})
	}
}

func TestCmdAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the toolchain")
	}
	out := runMain(t, "./cmd/agreement",
		"-n", "5", "-t", "3", "-k", "1", "-d", "2", "-l", "1",
		"-input", "4,4,4,1,2", "-crash", "5@1:2", "-trace")
	for _, want := range []string{"input ∈ C: true", "round 1", "DECIDES", "verdict: ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("agreement output lacks %q:\n%s", want, out)
		}
	}
	// Early and classical variants.
	out = runMain(t, "./cmd/agreement", "-variant", "early")
	if !strings.Contains(out, "verdict: ok") {
		t.Errorf("early variant failed:\n%s", out)
	}
	out = runMain(t, "./cmd/agreement", "-variant", "classical")
	if !strings.Contains(out, "classical baseline") || !strings.Contains(out, "verdict: ok") {
		t.Errorf("classical variant failed:\n%s", out)
	}
}

func TestCmdExperimentsSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the toolchain")
	}
	out := runMain(t, "./cmd/experiments", "-only", "E2")
	if !strings.Contains(out, "E2") || !strings.Contains(out, "[VERIFIED]") {
		t.Errorf("experiments output lacks verification:\n%s", out)
	}
}
