package rounds

import (
	"errors"
	"testing"

	"kset/internal/vector"
)

// cancelingProcess floods a constant value and closes the cancel channel
// during its send phase of closeAt, so the engine observes cancellation
// at the next round boundary.
type cancelingProcess struct {
	closeAt int
	cancel  chan struct{}
	rounds  int
}

func (p *cancelingProcess) Send(round int) any {
	if round == p.closeAt && p.cancel != nil {
		close(p.cancel)
		p.cancel = nil
	}
	return round
}

func (p *cancelingProcess) Step(round int, recv []any) (vector.Value, bool) {
	p.rounds = round
	return 0, false // never decides; only the round limit or Cancel stops the run
}

// TestRunCancelBeforeStart checks a run whose Cancel channel is already
// closed executes no round at all.
func TestRunCancelBeforeStart(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	procs := []Process{&cancelingProcess{}, &cancelingProcess{}}
	res, err := NewEngine().RunInto(nil, procs, FailurePattern{}, Options{MaxRounds: 5, Cancel: cancel})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res != nil {
		t.Fatalf("canceled run returned a result: %+v", res)
	}
	for i, p := range procs {
		if p.(*cancelingProcess).rounds != 0 {
			t.Fatalf("process %d stepped %d rounds after pre-run cancel", i+1, p.(*cancelingProcess).rounds)
		}
	}
}

// TestRunCancelMidRun checks cancellation closed during round 2 stops the
// run at the round-3 boundary: rounds 1 and 2 complete, round 3 never
// starts, and the engine reports ErrCanceled. Both the shared-row fast
// path and the transport path (an installed MatrixTransport) honor the
// bound.
func TestRunCancelMidRun(t *testing.T) {
	for _, tr := range []Transport{nil, &MatrixTransport{}} {
		cancel := make(chan struct{})
		procs := []Process{
			&cancelingProcess{closeAt: 2, cancel: cancel},
			&cancelingProcess{},
			&cancelingProcess{},
		}
		_, err := NewEngine().RunInto(nil, procs, FailurePattern{}, Options{MaxRounds: 50, Transport: tr, Cancel: cancel})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("transport %T: err = %v, want ErrCanceled", tr, err)
		}
		for i, p := range procs {
			if got := p.(*cancelingProcess).rounds; got != 2 {
				t.Fatalf("transport %T: process %d ran %d rounds, want exactly 2", tr, i+1, got)
			}
		}
	}
}

// TestRunNilCancelIsFree checks the nil channel changes nothing: the run
// completes to its round limit exactly as before the seam existed.
func TestRunNilCancelIsFree(t *testing.T) {
	procs := []Process{&cancelingProcess{}, &cancelingProcess{}}
	res, err := NewEngine().RunInto(nil, procs, FailurePattern{}, Options{MaxRounds: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res == nil {
		t.Fatalf("no result")
	}
	for i, p := range procs {
		if got := p.(*cancelingProcess).rounds; got != 4 {
			t.Fatalf("process %d ran %d rounds, want 4", i+1, got)
		}
	}
}
