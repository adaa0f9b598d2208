package main

import (
	"context"
	"encoding/json"
	"fmt"

	"kset"
)

// A workload is one set of inputs the benchmark runs. Every workload is a
// closed loop: a client issues its next op only after the previous one
// returned.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// clients is the number of closed-loop clients; op i belongs to
	// client i mod clients.
	clients int
	// sliceOps is how many ops run between two samples of the reference
	// kernel: one with one client, a tenth of a second's worth otherwise.
	sliceOps int
	// opsPerPass is the op count of one pass at the nominal 5 s.
	opsPerPass int
	// warmOps is how many ops the set-up runs untimed before the first
	// timed one: one fixed-size op in process; enough jobs to fill ksetd's
	// connections, goroutines and caches.
	warmOps int
	// goldenOps is the op prefix golden.json pins; no pass is shorter.
	goldenOps int
	// tracePieces is how many pieces the traced run cuts an op's stream
	// into (about 25 ms each, one checkpoint long on fault_storm): near
	// refMinGap, so that a span is short and still waits little for the
	// sample that closes it.
	tracePieces int
	// verify makes the traced run execute op 0's scenarios once more
	// under VerifyRuns and demand 0 violations.
	verify bool
	// open builds the workload from the seed. Everything it does is
	// set-up time.
	open func(seed int64) (*instance, error)
}

// An instance is a workload ready to run ops.
type instance struct {
	// runsPerOp is the number of agreement runs one op executes.
	runsPerOp int64
	// scenarios returns the system and scenario stream of op i.
	scenarios func(i int) (*kset.System, kset.ScenarioSource)
	// load, when non-nil, installs the stream the next op runs over
	// (materialising it where the op is slice-fed). It runs between timed
	// spans (driver.gap_s), never inside one. The end-to-end passes load
	// scenarios(i) before op i; the traced run loads a piece of it, so
	// that its spans are short enough to scale by the reference kernel.
	load func(src kset.ScenarioSource)
	// op is the call a user waits for: one campaign call over the loaded
	// stream, or (ksetd_jobs, which loads nothing) job i.
	op func(i int) (opOut, error)
	// udp says the system's synchronous runs go over UDP loopback
	// (a System does not export its transport).
	udp bool
	// expect, when non-nil, returns the stats JSON another execution
	// plane produces for op i's scenarios; the op's own must equal it.
	expect func(i int) ([]byte, error)
	close  func()
}

// prepare loads op i's own scenarios.
func (in *instance) prepare(i int) {
	if in.load != nil {
		_, src := in.scenarios(i)
		in.load(src)
	}
}

// opOut is what one op returned.
type opOut struct {
	st *kset.CampaignStats
	// raw is st's JSON when the op itself received it encoded (ksetd);
	// nil otherwise, and the caller encodes st outside the timed span.
	raw []byte
}

const passSeconds = 5 // nominal length of one pass; opsPerPass is sized for it

// childGOMAXPROCS is set in every child's environment: the child is
// confined to one CPU (see startPinned), and a second P there would measure
// the host's scheduling, not the program. (At 2 and unconfined, ksetd_jobs'
// op_p50_ms spread 11 % between seeds; at 1 it spreads 2 %.)
const childGOMAXPROCS = 1

var workloads = []*workload{
	{
		name:    "small_mix",
		why:     "2 us runs on the Key64 path across all four executors: generate, campaign dispatch, Runner set-up, Observe and the async scheduler dominate, not the round engine",
		clients: 1, sliceOps: 1, opsPerPass: 36, warmOps: 1, goldenOps: 2, tracePieces: 4, verify: true,
		open: openSmallMix,
	},
	{
		name:    "wide_sync",
		why:     "n=48 slice-fed campaign: leaves Key64 for the string-key fallback, 30 us of n^2 routing per run, campaign overhead under 5 percent; engine changes move it, campaign changes should not",
		clients: 1, sliceOps: 1, opsPerPass: 43, warmOps: 1, goldenOps: 2, tracePieces: 4, verify: true,
		open: openWideSync,
	},
	{
		name:    "fault_storm",
		why:     "checkpointed campaign under storm fault plans: faultnet draws and undecided accounting dominate, plus chunked ranges, Snapshot and checkpoint encode (writes beside reads)",
		clients: 1, sliceOps: 1, opsPerPass: 38, warmOps: 1, goldenOps: 2, tracePieces: 4,
		open: openFaultStorm,
	},
	{
		name:    "ksetd_jobs",
		why:     "256-run jobs over real HTTP, 2 tenants on one P: JSON decode, Compile, tenant scheduling, SSE log and stats encoding dominate; ksetd keeps every job, so peak RSS and GC cost are what retention moves",
		clients: ksetdClients, sliceOps: 75, opsPerPass: 3000, warmOps: 128, goldenOps: 6, tracePieces: 1,
		open: openKsetdJobs,
	},
	{
		name:    "wire_udp",
		why:     "every message is a UDP loopback datagram: syscalls, frame codec and ack bookkeeping are over 95 percent of a run, so campaign or core changes predict no movement here",
		clients: 1, sliceOps: 1, opsPerPass: 38, warmOps: 1, goldenOps: 2, tracePieces: 4,
		open: openWireUDP,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

var (
	smallParams = kset.Params{N: 8, T: 5, K: 2, D: 3, L: 1}
	wideParams  = kset.Params{N: 48, T: 24, K: 4, D: 12, L: 1}
	wireParams  = kset.Params{N: 6, T: 3, K: 2, D: 1, L: 1}
)

const (
	smallM = 4
	wideM  = 8
	wireM  = 4
)

// adversarySeed seeds every crash-pattern family. The workload seed draws
// the input vectors, thousands per op, whose averages barely move with it;
// a family is 2 to 4 patterns, and drawing those from the workload seed
// made msgs_per_run differ by 22 % and allocs_per_run by 26 % from one
// seed to the next (fault_storm, ten seeds), hiding what a change did.
const adversarySeed = 1

// newSystem builds the max-condition system of the in-process workloads:
// one campaign worker, matching the pinned GOMAXPROCS=1.
func newSystem(p kset.Params, m int, opts ...kset.Option) (*kset.System, error) {
	cond, err := kset.NewMaxCondition(p.N, m, p.X(), p.L)
	if err != nil {
		return nil, err
	}
	return kset.New(append([]kset.Option{kset.WithParams(p), kset.WithCondition(cond), kset.WithWorkers(1)}, opts...)...)
}

// smallMixSource is small_mix's scenario stream for one op: 3000 random
// inputs x 4 random crash patterns x the three synchronous executors, then
// the same inputs x 4 patterns of at most x crashes x the asynchronous one
// (more than x crashes could leave async runs undecided).
func smallMixSource(seed int64, op, inputs int) kset.ScenarioSource {
	p := smallParams
	in := func() kset.ScenarioSource { return kset.RandomInputs(seed+int64(op), p.N, smallM, inputs) }
	return kset.Concat(
		kset.CrossExecutors(
			kset.FailureSchedules(in(), kset.RandomCrashFamily(adversarySeed, p.N, p.T, p.RMax(), 4)),
			kset.Figure2, kset.EarlyDeciding, kset.Classical),
		kset.CrossExecutors(
			kset.FailureSchedules(in(), kset.RandomCrashFamily(adversarySeed, p.N, p.X(), p.RMax(), 4)),
			kset.Asynchronous),
	)
}

func openSmallMix(seed int64) (*instance, error) {
	sys, err := newSystem(smallParams, smallM)
	if err != nil {
		return nil, err
	}
	const inputs = 3000
	var src kset.ScenarioSource
	return &instance{
		runsPerOp: inputs * 4 * 4,
		scenarios: func(i int) (*kset.System, kset.ScenarioSource) { return sys, smallMixSource(seed, i, inputs) },
		load:      func(s kset.ScenarioSource) { src = s },
		op: func(int) (opOut, error) {
			st, err := sys.RunSource(context.Background(), src)
			return opOut{st: st}, err
		},
	}, nil
}

// wideSyncSource is wide_sync's scenario stream for one op.
func wideSyncSource(seed int64, op, inputs int) kset.ScenarioSource {
	p := wideParams
	return kset.CrossExecutors(
		kset.FailureSchedules(
			kset.RandomInputs(seed+int64(op), p.N, wideM, inputs),
			kset.RandomCrashFamily(adversarySeed, p.N, p.T, p.RMax(), 4)),
		kset.Figure2, kset.Classical)
}

func materialise(src kset.ScenarioSource, into []kset.Scenario) []kset.Scenario {
	into = into[:0]
	src.ForEach(func(sc kset.Scenario) bool {
		into = append(into, sc)
		return true
	})
	return into
}

func openWideSync(seed int64) (*instance, error) {
	sys, err := newSystem(wideParams, wideM)
	if err != nil {
		return nil, err
	}
	const inputs = 250
	var batch []kset.Scenario
	return &instance{
		runsPerOp: inputs * 4 * 2,
		scenarios: func(i int) (*kset.System, kset.ScenarioSource) { return sys, wideSyncSource(seed, i, inputs) },
		load:      func(s kset.ScenarioSource) { batch = materialise(s, batch) },
		op: func(int) (opOut, error) {
			st, err := sys.RunCampaign(context.Background(), batch)
			return opOut{st: st}, err
		},
	}, nil
}

// faultStormSource is fault_storm's scenario stream for one op.
func faultStormSource(seed int64, op, inputs int) kset.ScenarioSource {
	p := smallParams
	return kset.FaultSchedules(
		kset.FailureSchedules(
			kset.RandomInputs(seed+int64(op), p.N, smallM, inputs),
			kset.RandomCrashFamily(adversarySeed, p.N, p.T, p.RMax(), 2)),
		kset.StormFamily(seed, 4, 2, 0.2))
}

const checkpointEvery = 4096

func openFaultStorm(seed int64) (*instance, error) {
	sys, err := newSystem(smallParams, smallM)
	if err != nil {
		return nil, err
	}
	const inputs = 2000
	var src kset.ScenarioSource
	sink := func(cp kset.Checkpoint) error {
		_, err := kset.EncodeCheckpoint(cp)
		return err
	}
	return &instance{
		runsPerOp: inputs * 2 * 4,
		scenarios: func(i int) (*kset.System, kset.ScenarioSource) { return sys, faultStormSource(seed, i, inputs) },
		load:      func(s kset.ScenarioSource) { src = s },
		op: func(int) (opOut, error) {
			st, err := sys.RunCheckpointed(context.Background(), src, nil, checkpointEvery, sink)
			return opOut{st: st}, err
		},
	}, nil
}

// wireSource is wire_udp's scenario stream for one op.
func wireSource(seed int64, op, inputs int) kset.ScenarioSource {
	p := wireParams
	return kset.FailureSchedules(
		kset.RandomInputs(seed+int64(op), p.N, wireM, inputs),
		kset.RandomCrashFamily(adversarySeed, p.N, p.T, p.RMax(), 4))
}

func openWireUDP(seed int64) (*instance, error) {
	udp, err := newSystem(wireParams, wireM, kset.WithTransport(kset.UDPLoopback(kset.WireConfig{})))
	if err != nil {
		return nil, err
	}
	matrix, err := newSystem(wireParams, wireM)
	if err != nil {
		return nil, err
	}
	const inputs = 200
	var src kset.ScenarioSource
	return &instance{
		runsPerOp: inputs * 4,
		scenarios: func(i int) (*kset.System, kset.ScenarioSource) { return udp, wireSource(seed, i, inputs) },
		load:      func(s kset.ScenarioSource) { src = s },
		udp:       true,
		op: func(int) (opOut, error) {
			st, err := udp.RunSource(context.Background(), src)
			if err == nil && st.Metrics.Faults != nil {
				err = fmt.Errorf("udp loopback lost %d copies", st.Metrics.Faults.Lost.Sum)
			}
			return opOut{st: st}, err
		},
		expect: func(i int) ([]byte, error) {
			st, err := matrix.RunSource(context.Background(), wireSource(seed, i, inputs))
			if err != nil {
				return nil, err
			}
			return json.Marshal(st)
		},
	}, nil
}
