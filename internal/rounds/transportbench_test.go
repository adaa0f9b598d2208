package rounds_test

import (
	"testing"

	"kset/internal/faultnet"
	"kset/internal/rounds"
	"kset/internal/vector"
)

// benchFlood is the minimal flood protocol the engine benchmarks drive.
type benchFlood struct {
	min      vector.Value
	decideAt int
}

func (f *benchFlood) Send(int) any { return f.min }

func (f *benchFlood) Step(round int, recv []any) (vector.Value, bool) {
	for _, p := range recv {
		if v, ok := p.(vector.Value); ok && v < f.min {
			f.min = v
		}
	}
	return f.min, round >= f.decideAt
}

// BenchmarkEngineTransport measures delivery on a recycled engine +
// Result at n=16: the matrix arm has no transport — the campaign hot path,
// on the engine's shared row — and must stay allocation-free; the
// matrix-seam arm installs a MatrixTransport, the same delivery through
// the seam — an interface, not a cost — and the faultnet arms price a warm
// fault-injecting transport on the same workload, zero-fault and under a
// storm plan: all allocation-free too.
func BenchmarkEngineTransport(b *testing.B) {
	const n, maxRounds = 16, 4
	fp := rounds.FailurePattern{Crashes: map[rounds.ProcessID]rounds.Crash{
		3: {Round: 1, AfterSends: n / 2},
		7: {Round: 2, AfterSends: 1},
	}}
	procs := make([]rounds.Process, n)
	cells := make([]benchFlood, n)
	reset := func() {
		for i := range cells {
			cells[i] = benchFlood{min: vector.Value(1 + i%5), decideAt: maxRounds}
			procs[i] = &cells[i]
		}
	}

	run := func(b *testing.B, tr rounds.Transport) {
		var e rounds.Engine
		var res rounds.Result
		opts := rounds.Options{MaxRounds: maxRounds, Transport: tr}
		reset()
		if _, err := e.RunInto(&res, procs, fp, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reset()
			if _, err := e.RunInto(&res, procs, fp, opts); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("matrix", func(b *testing.B) { run(b, nil) })
	b.Run("matrix-seam", func(b *testing.B) { run(b, &rounds.MatrixTransport{}) })
	b.Run("faultnet", func(b *testing.B) {
		tr := &faultnet.Transport{}
		if err := tr.SetPlan(&faultnet.Plan{Seed: 3}, n); err != nil {
			b.Fatal(err)
		}
		run(b, tr)
	})
	b.Run("faultnet-storm", func(b *testing.B) {
		tr := &faultnet.Transport{}
		if err := tr.SetPlan(&faultnet.Plan{
			Seed:    3,
			Default: faultnet.LinkFaults{Loss: 0.1, DelayProb: 0.1, MaxDelay: 2, Duplicate: 0.05},
			Reorder: 0.1,
		}, n); err != nil {
			b.Fatal(err)
		}
		run(b, tr)
	})
}
