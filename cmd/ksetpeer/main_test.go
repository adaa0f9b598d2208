package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"kset/internal/condition"
	"kset/internal/core"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// peerBin is the ksetpeer binary under test, built once by TestMain —
// the chaos test needs a real OS process it can SIGKILL.
var peerBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ksetpeer")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	peerBin = filepath.Join(dir, "ksetpeer")
	out, err := exec.Command("go", "build", "-o", peerBin, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "build ksetpeer: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// freeUDPAddrs reserves n distinct loopback UDP ports and releases them
// for the peers to rebind.
func freeUDPAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	conns := make([]net.PacketConn, n)
	for i := range addrs {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		addrs[i] = c.LocalAddr().String()
	}
	for _, c := range conns {
		c.Close()
	}
	return addrs
}

// peerProc is one running ksetpeer process and its captured stdout.
type peerProc struct {
	cmd    *exec.Cmd
	stdout bytes.Buffer
}

// startPeer launches one peer of the fleet.
func startPeer(t *testing.T, id int, peers []string, extra ...string) *peerProc {
	t.Helper()
	args := append([]string{
		"-id", fmt.Sprint(id),
		"-peers", strings.Join(peers, ","),
		"-input", "3,1,2",
		"-t", "1", "-k", "1",
		"-linger", "250ms",
	}, extra...)
	p := &peerProc{cmd: exec.Command(peerBin, args...)}
	p.cmd.Stdout = &p.stdout
	p.cmd.Stderr = os.Stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start peer %d: %v", id, err)
	}
	return p
}

// waitPeer blocks until the peer exits or the bound expires — the bound
// is the test's liveness assertion: a run must always terminate.
func waitPeer(t *testing.T, id int, p *peerProc, bound time.Duration) report {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("peer %d: %v (stdout %q)", id, err, p.stdout.String())
		}
	case <-time.After(bound):
		p.cmd.Process.Kill()
		t.Fatalf("peer %d still running after %v — the run must terminate", id, bound)
	}
	var rep report
	if err := json.Unmarshal(p.stdout.Bytes(), &rep); err != nil {
		t.Fatalf("peer %d stdout %q: %v", id, p.stdout.String(), err)
	}
	return rep
}

// engineRun reproduces the fleet's instance in the in-process engine:
// same parameters and condition ksetpeer derives from its flags.
func engineRun(t *testing.T, fp rounds.FailurePattern) *rounds.Result {
	t.Helper()
	p := core.Params{N: 3, T: 1, K: 1, D: 0, L: 1}
	c, err := condition.NewMax(3, 3, p.X(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewRunner().RunCond(p, c, vector.OfInts(3, 1, 2), fp, false, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFleetLosslessMatchesEngine: three OS processes over real loopback
// UDP decide exactly what the in-process engine decides for the same
// instance — value and round, per process, with nobody suspected.
func TestFleetLosslessMatchesEngine(t *testing.T) {
	addrs := freeUDPAddrs(t, 3)
	procs := make(map[int]*peerProc, 3)
	for id := 1; id <= 3; id++ {
		procs[id] = startPeer(t, id, addrs)
	}
	want := engineRun(t, rounds.FailurePattern{})
	for id, p := range procs {
		rep := waitPeer(t, id, p, 30*time.Second)
		wv, decided := want.Decisions[rounds.ProcessID(id)]
		if rep.Decided != decided {
			t.Fatalf("peer %d: decided=%v, engine says %v", id, rep.Decided, decided)
		}
		if rep.Value != int(wv) || rep.Round != want.DecisionRound[id-1] {
			t.Errorf("peer %d decided %d@r%d, engine %d@r%d",
				id, rep.Value, rep.Round, wv, want.DecisionRound[id-1])
		}
		if len(rep.Suspected) != 0 {
			t.Errorf("peer %d suspected %v on a lossless network", id, rep.Suspected)
		}
	}
}

// TestFleetSurvivesKilledPeer is the chaos test: peer 3 is SIGKILLed
// mid-round (after its round-1 broadcast, verified via the -v marker,
// and before any peer it is waiting on exists). The survivors must
// suspect it at the round deadline, fold it into crash accounting, and
// decide exactly what the engine decides when process 3 crashes at the
// start of round 1 — never hang.
func TestFleetSurvivesKilledPeer(t *testing.T) {
	addrs := freeUDPAddrs(t, 3)

	victim := &peerProc{cmd: exec.Command(peerBin,
		"-id", "3", "-peers", strings.Join(addrs, ","),
		"-input", "3,1,2", "-t", "1", "-k", "1", "-v")}
	victim.cmd.Stdout = &victim.stdout
	stderr, err := victim.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the round-1 marker: the victim is alive inside round 1 and
	// its broadcast has hit the sockets. Its peers do not exist yet, so
	// nothing it sent survives — the kill makes it an initial crash.
	sc := bufio.NewScanner(stderr)
	marked := false
	for sc.Scan() {
		if strings.Contains(sc.Text(), "round=1 sent") {
			marked = true
			break
		}
	}
	if !marked {
		victim.cmd.Process.Kill()
		t.Fatal("victim exited before its round-1 marker")
	}
	if err := victim.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	victim.cmd.Wait()

	survivors := map[int]*peerProc{
		1: startPeer(t, 1, addrs, "-timeout", "500ms"),
		2: startPeer(t, 2, addrs, "-timeout", "500ms"),
	}
	want := engineRun(t, rounds.FailurePattern{Crashes: map[rounds.ProcessID]rounds.Crash{
		3: {Round: 1, AfterSends: 0},
	}})
	for id, p := range survivors {
		rep := waitPeer(t, id, p, 30*time.Second)
		wv, decided := want.Decisions[rounds.ProcessID(id)]
		if rep.Decided != decided {
			t.Fatalf("survivor %d: decided=%v, engine says %v", id, rep.Decided, decided)
		}
		if decided && (rep.Value != int(wv) || rep.Round != want.DecisionRound[id-1]) {
			t.Errorf("survivor %d decided %d@r%d, engine %d@r%d",
				id, rep.Value, rep.Round, wv, want.DecisionRound[id-1])
		}
		if len(rep.Suspected) != 1 || rep.Suspected[0] != 3 {
			t.Errorf("survivor %d suspected %v, want [3]", id, rep.Suspected)
		}
	}
	if _, crashed := want.Crashed[3]; !crashed {
		t.Error("engine reference run does not count process 3 crashed")
	}
}

// TestBadFlags pins the CLI validation: each broken invocation must fail
// fast with exit status 1, not hang waiting for a fleet.
func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{},
		{"-id", "0", "-peers", "a:1,b:2", "-input", "1,2"},
		{"-id", "3", "-peers", "a:1,b:2", "-input", "1,2"},
		{"-id", "1", "-peers", "a:1,b:2", "-input", "1"},
		{"-id", "1", "-peers", "a:1,b:2", "-input", "1,99"},
		{"-id", "1", "-peers", "only-one:1", "-input", "1"},
	}
	for i, args := range cases {
		err := exec.Command(peerBin, args...).Run()
		var ee *exec.ExitError
		if err == nil {
			t.Errorf("case %d: %v succeeded, want exit 1", i, args)
		} else if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Errorf("case %d: %v: %v, want exit 1", i, args, err)
		}
	}
}
