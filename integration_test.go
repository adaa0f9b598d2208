package kset_test

import (
	"os/exec"
	"strings"
	"testing"
)

// These tests run every command and example binary end to end through the
// Go toolchain, checking the load-bearing markers of their output. They
// are the closest thing to a user smoke test the module has.

func runMain(t *testing.T, pkg string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", pkg}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %s %v failed: %v\n%s", pkg, args, err, out)
	}
	return string(out)
}

// TestCmdLattice runs E1, the paper's Figure-1 lattice, on a small grid.
// Its report is OK only if every cell verifies.
func TestCmdLattice(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the toolchain")
	}
	args := []string{"-only", "E1", "-params", "n=4,m=3,xmax=1,lmax=2"}
	out := runMain(t, "./cmd/experiments", args...)
	for _, want := range []string{"✓", "[VERIFIED]"} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 output lacks %q:\n%s", want, out)
		}
	}
	// The -json form emits the shared structured report encoding.
	out = runMain(t, "./cmd/experiments", append(args, "-json")...)
	for _, want := range []string{`"id": "E1"`, `"ok": true`, `"sections"`} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 -json output lacks %q:\n%s", want, out)
		}
	}
}

// TestCmdNBCount runs E3, the NB(x,ℓ) tables, at 3^5 = 243 vectors: few
// enough that E3 cross-checks every cell against brute force, and a
// mismatch fails the report.
func TestCmdNBCount(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the toolchain")
	}
	args := []string{"-only", "E3", "-params", "n=5,m=3,lmax=2"}
	out := runMain(t, "./cmd/experiments", args...)
	for _, want := range []string{"NB(x,ℓ)", "[VERIFIED]"} {
		if !strings.Contains(out, want) {
			t.Errorf("E3 output lacks %q:\n%s", want, out)
		}
	}
	// The -json form emits the shared structured report encoding.
	out = runMain(t, "./cmd/experiments", append(args, "-json")...)
	for _, want := range []string{`"id": "E3"`, `"ok": true`, `"columns"`} {
		if !strings.Contains(out, want) {
			t.Errorf("E3 -json output lacks %q:\n%s", want, out)
		}
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

func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the toolchain")
	}
	for _, tc := range []struct {
		pkg  string
		want string
	}{
		{"./examples/quickstart", "specification: ok"},
		{"./examples/tradeoff", "classical baseline"},
		{"./examples/faultstorm", "early decision tracks"},
		{"./examples/asyncset", "expected: everyone"},
		{"./examples/designer", "legal up to x=2"},
	} {
		out := runMain(t, tc.pkg)
		if !strings.Contains(out, tc.want) {
			t.Errorf("%s output lacks %q:\n%s", tc.pkg, tc.want, out)
		}
	}
}
