package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// output runs the command and returns what it printed.
func output(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestEarlyTraceSendColumn pins how a traced early-deciding run renders its
// sends — the wrapper travels as a pointer, which %v alone would print as
// an address-of struct — and that the traced run, folded exactly as the
// untraced one is, reports what the untraced one does.
func TestEarlyTraceSendColumn(t *testing.T) {
	args := []string{"-n", "6", "-t", "4", "-k", "1", "-d", "2", "-l", "1", "-m", "4",
		"-input", "1,2,3,4,1,2", "-crash", "6@1:2", "-variant", "early"}
	traced := output(t, append(args, "-trace")...)
	for _, line := range []string{
		"  p4   sends (4 flag=false)\n",
		"  p6   sends (2 flag=false)  [crashed after 2/6 sends]\n",
		"  p1   sends ((cond=⊥ tmf=⊥ out=4) flag=false)\n",
		"  p5   sends ((cond=⊥ tmf=⊥ out=4) flag=true)\n",
	} {
		if !strings.Contains(traced, line) {
			t.Errorf("trace lacks %q:\n%s", line, traced)
		}
	}
	plain := output(t, args...)
	_, table, ok := strings.Cut(plain, "\nproc ")
	if !ok || !strings.HasSuffix(traced, table) || !strings.Contains(table, "messages delivered: 92") {
		t.Errorf("untraced run reports\n%s\ntraced run\n%s", plain, traced)
	}
}
