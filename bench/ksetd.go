package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"kset"
	"kset/internal/service"
)

// ksetdSpecs are the 256-run jobs ksetd_jobs rotates over: three shapes —
// figure2 under random crashes, figure2 under storm fault plans, and the
// asynchronous executor under at most one initial crash — each over
// ksetdVariants different input sets, shape by shape. (One input set per
// shape is 64 vectors, and their averages moved rounds_per_run by 1.7 %
// from one workload seed to the next.)
func ksetdSpecs(seed int64) []service.JobSpec {
	params := service.ParamsSpec{N: smallParams.N, T: smallParams.T, K: smallParams.K, D: smallParams.D, L: smallParams.L}
	cond := &service.ConditionSpec{Kind: "max", M: smallM}
	var specs []service.JobSpec
	for v := int64(0); v < ksetdVariants; v++ {
		inputs := seed + 3*v
		specs = append(specs,
			service.JobSpec{
				Params: params, Condition: cond,
				Source:   service.SourceSpec{Kind: "random", Seed: inputs, Count: 64},
				Failures: &service.FailuresSpec{Kind: "random", Seed: adversarySeed, Count: 4},
			},
			service.JobSpec{
				Params: params, Condition: cond,
				Source: service.SourceSpec{Kind: "random", Seed: inputs + 1, Count: 64},
				Faults: &service.FaultsSpec{Kind: "storm", Seed: seed, Size: 4, MaxDelay: 2, Intensity: 0.2},
			},
			service.JobSpec{
				Params: params, Condition: cond, Executor: "async",
				Source:   service.SourceSpec{Kind: "random", Seed: inputs + 2, Count: 128},
				Failures: &service.FailuresSpec{Kind: "initial", MaxF: 1},
			})
	}
	return specs
}

const (
	ksetdRunsPerJob = 256
	ksetdVariants   = 32
	ksetdClients    = 2 // one per tenant: two jobs in flight, one per scheduler slot
)

// ksetdShape is one job spec with the answer ksetd must stream back.
type ksetdShape struct {
	body []byte // the POSTed spec
	sys  *kset.System
	src  kset.ScenarioSource
	st   *kset.CampaignStats
	raw  []byte // st as the terminal "stats" event must carry it
}

// inProcess builds the spec the way a library user would, without the
// daemon: running the source on the system is the reference every ksetd
// terminal event must equal.
func inProcess(spec service.JobSpec) (*kset.System, kset.ScenarioSource, error) {
	p := kset.Params{N: spec.Params.N, T: spec.Params.T, K: spec.Params.K, D: spec.Params.D, L: spec.Params.L}
	src := kset.RandomInputs(spec.Source.Seed, p.N, spec.Condition.M, spec.Source.Count)
	var opts []kset.Option
	switch {
	case spec.Failures != nil && spec.Failures.Kind == "random":
		src = kset.FailureSchedules(src, kset.RandomCrashFamily(spec.Failures.Seed, p.N, p.T, p.RMax(), spec.Failures.Count))
	case spec.Failures != nil:
		src = kset.FailureSchedules(src, kset.InitialCrashFamily(p.N, spec.Failures.MaxF))
	}
	if f := spec.Faults; f != nil {
		src = kset.FaultSchedules(src, kset.StormFamily(f.Seed, f.Size, f.MaxDelay, f.Intensity))
	}
	if spec.Executor == "async" {
		opts = append(opts, kset.WithExecutor(kset.Asynchronous))
	}
	sys, err := newSystem(p, spec.Condition.M, opts...)
	return sys, src, err
}

func openKsetdJobs(seed int64) (*instance, error) {
	specs := ksetdSpecs(seed)
	shapes := make([]ksetdShape, len(specs))
	for i, spec := range specs {
		sys, src, err := inProcess(spec)
		if err != nil {
			return nil, err
		}
		st, err := sys.RunSource(context.Background(), src)
		if err != nil {
			return nil, err
		}
		if st.Runs != ksetdRunsPerJob {
			return nil, fmt.Errorf("job shape %d has %d runs, want %d", i, st.Runs, ksetdRunsPerJob)
		}
		sh := ksetdShape{sys: sys, src: src, st: st}
		if sh.raw, err = json.Marshal(st); err != nil {
			return nil, err
		}
		if sh.body, err = json.Marshal(spec); err != nil {
			return nil, err
		}
		shapes[i] = sh
	}

	d, err := startKsetd()
	if err != nil {
		return nil, err
	}
	clients := make([]*ksetdClient, ksetdClients)
	for c := range clients {
		clients[c] = &ksetdClient{base: d.base, tenant: fmt.Sprintf("tenant-%d", c), http: &http.Client{Transport: &http.Transport{}}}
	}
	// Client c's j-th job is spec j + c of the rotation, so the two
	// tenants are never in step.
	shapeOf := func(i int) *ksetdShape { return &shapes[(i/len(clients)+i%len(clients))%len(shapes)] }
	return &instance{
		runsPerOp: ksetdRunsPerJob,
		scenarios: func(i int) (*kset.System, kset.ScenarioSource) { return shapeOf(i).sys, shapeOf(i).src },
		op: func(i int) (opOut, error) {
			c := clients[i%len(clients)]
			sh := shapeOf(i)
			ev, payload, _, err := c.runJob(sh.body)
			switch {
			case err != nil:
				return opOut{}, err
			case ev != "stats":
				return opOut{}, fmt.Errorf("terminal event %q: %s", ev, payload)
			case !bytes.Equal(payload, sh.raw):
				return opOut{}, fmt.Errorf("ksetd stats differ from the in-process run of the same spec")
			}
			return opOut{st: sh.st, raw: sh.raw}, nil
		},
		close: func() {
			for _, c := range clients {
				c.http.CloseIdleConnections()
			}
			d.stop()
		},
	}, nil
}

// ksetd is the daemon under test: service.NewServer behind a real
// net/http server with cmd/ksetd's timeouts, on a loopback port.
type ksetd struct {
	base string
	stop func()
}

func startKsetd() (*ksetd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.NewServer(service.Config{})
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // always ErrServerClosed after stop
	}()
	return &ksetd{
		base: "http://" + ln.Addr().String(),
		stop: func() {
			svc.Close()
			_ = srv.Close()
			<-done
		},
	}, nil
}

// ksetdClient is one tenant's closed-loop client.
type ksetdClient struct {
	base   string
	tenant string
	http   *http.Client
}

// jobStamps are the client-side times of one job, from the POST.
type jobStamps struct {
	accepted, firstEvent, terminal time.Duration
}

// runJob submits one spec and follows its event stream to the terminal
// event, returning that event's name and payload.
func (c *ksetdClient) runJob(body []byte) (event string, payload []byte, at jobStamps, err error) {
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return "", nil, at, err
	}
	req.Header.Set("X-Tenant", c.tenant)
	resp, err := c.http.Do(req)
	if err != nil {
		return "", nil, at, err
	}
	var accepted struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return "", nil, at, fmt.Errorf("POST /v1/campaigns: status %d: %v", resp.StatusCode, err)
	}
	at.accepted = time.Since(start)

	resp, err = c.http.Get(c.base + "/v1/campaigns/" + accepted.ID + "/events")
	if err != nil {
		return "", nil, at, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", nil, at, fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	event, payload, at.firstEvent, err = readTerminalEvent(resp.Body, start)
	at.terminal = time.Since(start)
	return event, payload, at, err
}

// readTerminalEvent reads a job's server-sent event stream up to its
// terminal event. first is when the stream's first byte arrived.
func readTerminalEvent(r io.Reader, start time.Time) (event string, payload []byte, first time.Duration, err error) {
	br := bufio.NewReaderSize(r, 16<<10)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return "", nil, first, fmt.Errorf("event stream ended before a terminal event: %w", err)
		}
		if first == 0 {
			first = time.Since(start)
		}
		line = bytes.TrimRight(line, "\n")
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			payload = line[len("data: "):]
		case len(line) == 0:
			switch event {
			case "stats", "sweep", "error", "canceled":
				return event, payload, first, nil
			}
		}
	}
}
