package service

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"time"

	"kset"
	"kset/internal/stats"
)

// State is a job's lifecycle phase.
type State string

// The job lifecycle: Queued → Running → one of Done, Failed or Canceled.
const (
	// StateQueued: accepted, waiting in its tenant's queue.
	StateQueued State = "queued"
	// StateRunning: dispatched, scenarios in flight.
	StateRunning State = "running"
	// StateDone: completed; the final stats (or sweep results) are set.
	StateDone State = "done"
	// StateFailed: aborted by an execution error.
	StateFailed State = "failed"
	// StateCanceled: canceled by DELETE, client disconnect or shutdown
	// before completing.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one entry of a job's event log — the unit of the SSE stream.
// The log keeps the "running" event, the newest snapshot and the terminal
// event, so every subscriber, however late, sees "running", a monotone
// subsequence of the snapshots ending in the final one, and the same
// terminal event.
type Event struct {
	// Seq is the event's publication number (the SSE id): strictly
	// increasing along a job's stream, with gaps where a subscriber
	// missed superseded snapshots.
	Seq int
	// Type is the SSE event name: "running", "snapshot", "stats",
	// "sweep", "error" or "canceled".
	Type string
	// Data is the event's pre-encoded JSON payload.
	Data []byte
}

// maxLogEvents is the longest a job's log gets: "running", one snapshot,
// the terminal event.
const maxLogEvents = 3

// Job is one accepted submission: until it is terminal a compiled spec
// and its live progress, afterwards only what answers a GET — identity,
// state, error text, run counts and the event log, whose terminal event
// is the one encoding of the results. All mutable state is guarded by
// mu; subscribers wait on cond for new events.
type Job struct {
	// ID is the job's handle ("j-1", "j-2", …).
	ID string
	// Tenant is the queue the job was accepted into.
	Tenant string

	label string
	total int64 // scenarios the job will execute, when sized
	sized bool

	mu     sync.Mutex
	cond   *sync.Cond
	state  State
	events []Event
	seq    int // the next event's Seq
	done   chan struct{}

	// Released (nil) at the terminal transition: a finished job must not
	// pin a System, its scenario closures or an accumulator.
	compiled *CompiledJob
	progress *kset.Progress
	cancel   context.CancelFunc
	// The periodic snapshot timer of a running job; nil once it settles.
	ticker *time.Timer
	// Set at the terminal transition.
	runs    int64
	errText string
}

// newJob builds a queued job around a compiled spec.
func newJob(id string, c *CompiledJob) *Job {
	j := &Job{
		ID:       id,
		Tenant:   c.Spec.Tenant,
		label:    c.Spec.Label,
		compiled: c,
		progress: new(kset.Progress),
		state:    StateQueued,
		events:   make([]Event, 0, maxLogEvents),
		done:     make(chan struct{}),
	}
	j.total, j.sized = c.TotalRuns()
	j.cond = sync.NewCond(&j.mu)
	return j
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// encode marshals an event payload compactly. Marshal errors cannot
// happen for the service's own payload types; encoding before taking mu
// keeps the log consistent if one ever did.
func encode(payload any) []byte {
	data, err := json.Marshal(payload)
	if err != nil {
		return []byte(`{}`)
	}
	return data
}

// appendLocked adds one event to the log and wakes subscribers; the
// caller holds mu. A snapshot supersedes the snapshot before it, so a
// job's log stays at maxLogEvents however long it runs.
func (j *Job) appendLocked(typ string, data []byte) {
	ev := Event{Seq: j.seq, Type: typ, Data: data}
	j.seq++
	if n := len(j.events); typ == "snapshot" && n > 0 && j.events[n-1].Type == "snapshot" {
		j.events[n-1] = ev
	} else {
		j.events = append(j.events, ev)
	}
	j.cond.Broadcast()
}

// publish appends one non-terminal event to the log.
func (j *Job) publish(typ string, data []byte) {
	j.mu.Lock()
	j.appendLocked(typ, data)
	j.mu.Unlock()
}

// finishLocked is the terminal transition; the caller holds mu. It
// records the outcome and the runs it covers, appends the terminal event,
// drops everything only a live job needs and releases waiters.
func (j *Job) finishLocked(state State, typ string, data []byte, errText string, runs int64) {
	j.state = state
	j.errText = errText
	j.runs = runs
	j.compiled, j.progress, j.cancel = nil, nil, nil
	j.appendLocked(typ, data)
	close(j.done)
}

// finish moves a running job to a terminal state.
func (j *Job) finish(state State, typ string, data []byte, errText string, runs int64) {
	j.mu.Lock()
	j.finishLocked(state, typ, data, errText, runs)
	j.mu.Unlock()
}

// metricsOf cuts the accumulator out of a CampaignStats encoding, sharing
// its bytes: it is the last field, and every field before it is numeric.
func metricsOf(stats []byte) []byte {
	_, m, _ := bytes.Cut(stats, []byte(`,"metrics":`))
	return bytes.TrimSuffix(m, []byte("}"))
}

// canceledQueued is the terminal payload of a job canceled in its queue;
// event payloads are never written to, so every such job shares it.
var canceledQueued = encode(errorBody{Code: "canceled", Message: "job canceled"})

// Cancel requests cancellation: in-flight work is stopped via the job's
// context; a still-queued job is finished directly (the scheduler skips
// canceled jobs at dispatch). Canceling a terminal job is a no-op.
func (j *Job) Cancel() {
	j.mu.Lock()
	var cancel context.CancelFunc
	switch j.state {
	case StateQueued:
		j.finishLocked(StateCanceled, "canceled", canceledQueued, "", 0)
	case StateRunning:
		cancel = j.cancel
	}
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// run executes the job under ctx, publishing periodic snapshots and the
// terminal event. The scheduler calls it from a worker slot; it returns
// when the job is terminal.
func (j *Job) run(ctx context.Context, snapshotEvery time.Duration) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	j.mu.Lock()
	if j.state != StateQueued {
		// Canceled while queued; the terminal event is already published.
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.cancel = cancel
	// The terminal transition releases these fields; run works on its own
	// references.
	compiled, progress := j.compiled, j.progress
	j.mu.Unlock()
	j.publish("running", encode(statusPayload{ID: j.ID, Tenant: j.Tenant, State: StateRunning}))

	if snapshotEvery > 0 {
		// One timer per running job, re-armed by its own callback: a job
		// shorter than the period never fires it.
		j.mu.Lock()
		j.ticker = time.AfterFunc(snapshotEvery, func() {
			data := stats.Encode(progress.Snapshot().AppendJSON)
			j.mu.Lock()
			defer j.mu.Unlock()
			if j.ticker != nil { // nil once the run settled: drop it
				j.appendLocked("snapshot", data)
				j.ticker.Reset(snapshotEvery)
			}
		})
		j.mu.Unlock()
	}

	var (
		cs    *kset.CampaignStats
		sweep []kset.SweepResult
		err   error
	)
	opts := compiled.options([]kset.CampaignOption{kset.TrackProgress(progress)})
	if compiled.Sweep() {
		sweep, err = kset.RunSweep(ctx, compiled.points, opts...)
	} else {
		cs, err = compiled.sys.RunSource(ctx, compiled.src, opts...)
	}
	j.mu.Lock()
	if j.ticker != nil {
		j.ticker.Stop()
		j.ticker = nil
	}
	j.mu.Unlock()

	// The stream always carries at least one snapshot, emitted after the
	// run settles so the last one covers every completed scenario: the
	// campaign's Metrics, cut from the one encoding of its stats, or for a
	// sweep the handle, which every point — a canceled one too — joined.
	var statsJSON, snapshot []byte
	var runs int64
	if cs != nil {
		statsJSON, runs = stats.Encode(cs.AppendJSON), cs.Runs
		snapshot = metricsOf(statsJSON)
	} else {
		acc := progress.Snapshot()
		snapshot, runs = stats.Encode(acc.AppendJSON), acc.Runs
	}
	j.publish("snapshot", snapshot)

	switch {
	case err != nil && ctx.Err() != nil:
		j.finish(StateCanceled, "canceled", encode(abortBody{errorBody{"canceled", err.Error()}, statsJSON, sweep}), err.Error(), runs)
	case err != nil:
		j.finish(StateFailed, "error", encode(abortBody{errorBody{"run_failed", err.Error()}, statsJSON, sweep}), err.Error(), runs)
	case sweep != nil:
		j.finish(StateDone, "sweep", encode(sweep), "", runs)
	default:
		j.finish(StateDone, "stats", statsJSON, "", runs)
	}
}

// statusPayload is the JSON shape of a job's status.
type statusPayload struct {
	// ID, Tenant, Label and State identify the job and its phase.
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Label  string `json:"label,omitempty"`
	State  State  `json:"state"`
	// Runs counts scenarios completed so far; TotalRuns is the known
	// total (omitted when the source size is unknown).
	Runs      int64 `json:"runs"`
	TotalRuns int64 `json:"total_runs,omitempty"`
	// Error carries the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Stats and Sweep carry a terminal job's results — partial ones when
	// it was canceled or failed — as its terminal event encoded them.
	Stats json.RawMessage `json:"stats,omitempty"`
	Sweep json.RawMessage `json:"sweep,omitempty"`
}

// Status returns the job's current status; withResults includes the
// terminal stats or sweep results.
func (j *Job) Status(withResults bool) statusPayload {
	j.mu.Lock()
	st := statusPayload{
		ID:     j.ID,
		Tenant: j.Tenant,
		Label:  j.label,
		State:  j.state,
		Runs:   j.runs,
		Error:  j.errText,
	}
	if withResults && j.state.Terminal() {
		switch last := j.events[len(j.events)-1]; last.Type {
		case "stats":
			st.Stats = last.Data
		case "sweep":
			st.Sweep = last.Data
		default:
			var aborted struct {
				Stats json.RawMessage `json:"stats"`
				Sweep json.RawMessage `json:"sweep"`
			}
			_ = json.Unmarshal(last.Data, &aborted) // encoded by finish
			st.Stats, st.Sweep = aborted.Stats, aborted.Sweep
		}
	}
	progress := j.progress
	j.mu.Unlock()
	if progress != nil {
		st.Runs = progress.Runs()
	}
	if j.sized {
		st.TotalRuns = j.total
	}
	return st
}

// Events streams the job's event log through fn, a batch at a time: every
// logged event newer than the last one delivered, in order, blocking for
// new events until the job is terminal and its terminal event delivered.
// The batch is only valid during the call. It returns fn's first error,
// or ctx.Err() if the subscriber's context ends first.
func (j *Job) Events(ctx context.Context, fn func([]Event) error) error {
	// Wake the cond waiter when the subscriber disconnects; without this
	// a subscriber of an idle job would sleep past its own cancellation.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()

	var buf [maxLogEvents]Event
	last := -1 // Seq of the newest event delivered
	for {
		j.mu.Lock()
		for j.seq-1 <= last && !j.state.Terminal() && ctx.Err() == nil {
			j.cond.Wait()
		}
		// Copied out: the log's snapshot slot is overwritten in place.
		batch := buf[:0]
		for _, ev := range j.events {
			if ev.Seq > last {
				batch = append(batch, ev)
			}
		}
		terminal := j.state.Terminal()
		j.mu.Unlock()

		if err := ctx.Err(); err != nil {
			return err
		}
		if len(batch) > 0 {
			if err := fn(batch); err != nil {
				return err
			}
			last = batch[len(batch)-1].Seq
		}
		if terminal {
			return nil
		}
	}
}

// errorBody is the JSON error payload of 4xx/5xx responses and terminal
// error events: {"code": ..., "message": ...}.
type errorBody struct {
	// Code is the machine-readable error class; Message the human detail.
	Code    string `json:"code"`
	Message string `json:"message"`
}

// abortBody is the terminal payload of a job that started and did not
// complete: the error, and beside it the results of what did run.
type abortBody struct {
	errorBody
	Stats json.RawMessage    `json:"stats,omitempty"`
	Sweep []kset.SweepResult `json:"sweep,omitempty"`
}
