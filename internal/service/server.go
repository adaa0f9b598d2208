package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"kset"
	"kset/internal/experiments"
	"kset/internal/shard"
	"kset/internal/stats"
)

// Config tunes a Server; the zero value gets sensible defaults.
type Config struct {
	// MaxActive bounds concurrently running jobs (default 2).
	MaxActive int
	// MaxQueuedPerTenant bounds each tenant's queue (default 1024).
	MaxQueuedPerTenant int
	// SnapshotInterval paces the SSE progress snapshots (default 250ms).
	SnapshotInterval time.Duration
	// MaxBodyBytes caps every request body (default 8 MiB). A larger
	// body is cut off mid-read and answered with a structured 413 —
	// shard uploads are the only legitimately large payloads and they
	// fit comfortably; anything bigger is a mistake or a memory attack.
	MaxBodyBytes int64
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.MaxActive == 0 {
		c.MaxActive = 2
	}
	if c.MaxQueuedPerTenant == 0 {
		c.MaxQueuedPerTenant = 1024
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = 250 * time.Millisecond
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// maxFinished is how many finished jobs stay readable. Past it the job
// that finished longest ago is forgotten and its ID answers 404; queued
// and running jobs are never forgotten.
const maxFinished = 256

// Server is the agreement-as-a-service core: it accepts declarative
// JobSpecs over HTTP, schedules them fairly across tenants, streams
// progress as server-sent events and exposes the paper's experiment
// registry. Wire its Handler into an http.Server (cmd/ksetd does) or an
// httptest.Server.
type Server struct {
	cfg   Config
	ctx   context.Context
	stop  context.CancelFunc
	sched *Scheduler

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // IDs of jobs, in submission order
	seq   int
	// finished lists the IDs of the retained terminal jobs, in the order
	// they finished: the eviction queue, at most retain long.
	finished []string
	retain   int // maxFinished; a field so that tests can move it
}

// NewServer builds and starts the service core.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		jobs:   make(map[string]*Job),
		retain: maxFinished,
	}
	s.ctx, s.stop = context.WithCancel(context.Background())
	s.sched = NewScheduler(cfg.MaxActive, cfg.MaxQueuedPerTenant, func(j *Job) {
		j.run(s.ctx, cfg.SnapshotInterval)
		s.retire(j)
	})
	s.sched.Start()
	return s
}

// Drain stops accepting jobs and waits for everything accepted to
// finish, or for ctx to expire. The graceful half of shutdown.
func (s *Server) Drain(ctx context.Context) error { return s.sched.Drain(ctx) }

// Close hard-stops the server: running jobs are canceled through their
// base context and the dispatcher halts. Call Drain first for a graceful
// exit.
func (s *Server) Close() {
	s.stop()
	s.sched.Stop()
}

// Handler returns the service's HTTP routing. Routes are matched
// manually (method checks per path), keeping the daemon on the Go 1.21
// ServeMux feature set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/v1/campaigns", s.handleCampaigns)
	mux.HandleFunc("/v1/campaigns/", s.handleCampaign)
	mux.HandleFunc("/v1/experiments", s.handleExperiments)
	mux.HandleFunc("/v1/experiments/", s.handleExperiment)
	mux.HandleFunc("/v1/merge", s.handleMerge)
	// Every body is capped before any handler reads it. MaxBytesReader
	// also closes the connection on overrun, so an oversized upload
	// cannot be streamed to completion just to be rejected.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		mux.ServeHTTP(w, r)
	})
}

// Response header values, shared by every response: assigning one to a
// header key costs nothing, where Header.Set allocates its slice per call.
// net/http only reads them.
var (
	jsonContentType = []string{"application/json"}
	sseContentType  = []string{"text/event-stream"}
	noCache         = []string{"no-cache"}
	keepAlive       = []string{"keep-alive"}
)

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeDecodeError classifies a request-body decode failure: a body
// that hit the MaxBytesReader cap is a structured 413 (the client must
// shrink or shard its upload), anything else the usual 400.
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, "bad_json", err.Error())
}

// writeError writes the structured error body.
func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, struct {
		Error errorBody `json:"error"`
	}{errorBody{Code: code, Message: message}})
}

// errorTable is ksetd's error taxonomy: the code and HTTP status of every
// error a handler passes on rather than names itself, selected by the
// sentinel the error wraps. The first matching row wins, so the specific
// sentinels precede ErrBadParams — ErrDomainTooLarge and ErrBadInput exist
// precisely so that a client can tell "shrink the domain" and "fix the
// vector" apart from a generally malformed spec — and the last row, with no
// sentinel, takes whatever wraps none.
var errorTable = []struct {
	code     string
	sentinel error
	status   int
}{
	{"domain_too_large", kset.ErrDomainTooLarge, http.StatusBadRequest},
	{"bad_input", kset.ErrBadInput, http.StatusBadRequest},
	{"bad_params", kset.ErrBadParams, http.StatusBadRequest},
	{"draining", ErrDraining, http.StatusServiceUnavailable},
	{"queue_full", ErrQueueFull, http.StatusTooManyRequests},
	{"internal", nil, http.StatusInternalServerError},
}

// writeErr writes err as the structured body of its errorTable row.
func writeErr(w http.ResponseWriter, err error) {
	for _, row := range errorTable {
		if row.sentinel == nil || errors.Is(err, row.sentinel) {
			writeError(w, row.status, row.code, err.Error())
			return
		}
	}
}

// handleHealth serves the liveness probe.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

// handleCampaigns serves the collection: POST submits, GET lists.
func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.submit(w, r)
	case http.MethodGet:
		s.list(w, r)
	default:
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", r.Method+" not allowed")
	}
}

// decodeBody decodes a request body that must be exactly one JSON value
// into v. It rejects unknown fields, so typos in field names fail loudly
// instead of silently configuring nothing, and anything after the value
// but whitespace, so a body is never half read: a trailing newline is
// fine, a second value or stray text is not.
func decodeBody(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err != nil:
		return fmt.Errorf("after the JSON value: %w", err) // a 413 stays one
	default:
		return errors.New("more than one JSON value in the body")
	}
}

// decodeSpec decodes a JobSpec body.
func decodeSpec(body io.Reader) (JobSpec, error) {
	var spec JobSpec
	return spec, decodeBody(body, &spec)
}

// addJob registers a compiled job under a fresh ID.
func (s *Server) addJob(c *CompiledJob) *Job {
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("j-%d", s.seq)
	j := newJob(id, c)
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	return j
}

// forgetLocked drops a job from the registry; the caller holds mu.
func (s *Server) forgetLocked(id string) {
	delete(s.jobs, id)
	if i := slices.Index(s.order, id); i >= 0 {
		s.order = slices.Delete(s.order, i, i+1)
	}
}

// retire queues a job that just left its run slot — terminal, whether it
// ran or was canceled while queued — for eviction, and forgets the jobs
// that finished longest ago once more than maxFinished are retained.
func (s *Server) retire(j *Job) {
	s.mu.Lock()
	s.finished = append(s.finished, j.ID)
	for len(s.finished) > s.retain {
		s.forgetLocked(s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
}

// submit handles POST /v1/campaigns: decode, compile (the validation
// gate), enqueue. The default reply is 202 with the job's handle;
// ?wait=1 blocks until the job is terminal and replies with its results,
// canceling the job if the client disconnects first.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(r.Body)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	if t := r.Header.Get("X-Tenant"); t != "" {
		spec.Tenant = t
	}
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	compiled, err := Compile(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	j := s.addJob(compiled)
	if err := s.sched.Enqueue(j); err != nil {
		s.dropJob(j.ID)
		writeErr(w, err)
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		stop := context.AfterFunc(r.Context(), j.Cancel)
		defer stop()
		select {
		case <-j.Done():
			writeJSON(w, http.StatusOK, j.Status(true))
		case <-r.Context().Done():
			// The client left; the AfterFunc cancels the job.
		}
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status(false))
}

// dropJob removes a job that was never accepted by the scheduler.
func (s *Server) dropJob(id string) {
	s.mu.Lock()
	s.forgetLocked(id)
	s.mu.Unlock()
}

// list handles GET /v1/campaigns[?tenant=x]: job summaries in
// submission order.
func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil && (tenant == "" || j.Tenant == tenant) {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := struct {
		Jobs []statusPayload `json:"jobs"`
	}{Jobs: make([]statusPayload, len(jobs))}
	for i, j := range jobs {
		out.Jobs[i] = j.Status(false)
	}
	writeJSON(w, http.StatusOK, out)
}

// lookup resolves a job by ID.
func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// handleCampaign serves one job: GET status, DELETE cancel, and the
// /events SSE stream.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/campaigns/")
	id, sub, _ := strings.Cut(rest, "/")
	j := s.lookup(id)
	if j == nil {
		writeError(w, http.StatusNotFound, "not_found", "no job "+id)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, j.Status(true))
	case sub == "" && r.Method == http.MethodDelete:
		j.Cancel()
		writeJSON(w, http.StatusOK, j.Status(false))
	case sub == "events" && r.Method == http.MethodGet:
		s.streamEvents(w, r, j)
	case sub != "" && sub != "events":
		writeError(w, http.StatusNotFound, "not_found", "no resource "+rest)
	default:
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", r.Method+" not allowed")
	}
}

// streamEvents serves GET /v1/campaigns/{id}/events: the job's event
// log as server-sent events, replayed from the start and followed live
// until the terminal event, one flush per delivered batch.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "no_stream", "response writer cannot stream")
		return
	}
	// An event stream outlives any sane per-connection deadline: clear
	// the server's read/write timeouts for this connection so a hardened
	// http.Server (cmd/ksetd sets ReadTimeout) cannot sever a live
	// stream that is still delivering progress.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Time{})
	_ = rc.SetWriteDeadline(time.Time{})
	h := w.Header()
	h["Content-Type"] = sseContentType
	h["Cache-Control"] = noCache
	h["Connection"] = keepAlive
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// Each event is one frame: its id, event and data lines and a blank
	// line. The pieces go straight into the ResponseWriter, which buffers
	// them, and a batch's frames leave in one flush.
	_ = j.Events(r.Context(), func(batch []Event) error {
		for _, ev := range batch {
			for _, s := range [...]string{"id: ", strconv.Itoa(ev.Seq), "\nevent: ", ev.Type, "\ndata: "} {
				if _, err := io.WriteString(w, s); err != nil {
					return err
				}
			}
			if _, err := w.Write(ev.Data); err != nil {
				return err
			}
			if _, err := io.WriteString(w, "\n\n"); err != nil {
				return err
			}
		}
		flusher.Flush()
		return nil
	})
}

// handleMerge serves POST /v1/merge: fold shard result uploads into one
// campaign stats report. The body is {"shards": [blob, ...]} where each
// blob is an accumulator encoding, a checkpoint envelope, or a campaign
// stats report (its "metrics" field is taken) — the three shapes sharded
// workers naturally hold. Because Accumulator.Merge is commutative and
// associative, the folded report is byte-identical to the one a single
// process running every shard's scenarios would have produced, whatever
// the shard count or upload order.
func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", r.Method+" not allowed")
		return
	}
	var body struct {
		Shards []json.RawMessage `json:"shards"`
	}
	if err := decodeBody(r.Body, &body); err != nil {
		writeDecodeError(w, err)
		return
	}
	if len(body.Shards) == 0 {
		writeError(w, http.StatusBadRequest, "no_shards", "merge needs at least one shard")
		return
	}
	merged := stats.NewAccumulator()
	for i, raw := range body.Shards {
		acc, err := decodeShard(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_shard", fmt.Sprintf("shard %d: %v", i, err))
			return
		}
		merged.Merge(acc)
	}
	writeJSON(w, http.StatusOK, struct {
		Shards int                 `json:"shards"`
		Stats  *kset.CampaignStats `json:"stats"`
	}{Shards: len(body.Shards), Stats: kset.CampaignStatsOf(merged)})
}

// decodeShard turns one uploaded shard blob into its accumulator. Three
// shapes are accepted, tried most-specific first: a checkpoint envelope
// (strictly decoded and validated; its stats snapshot is taken), a raw
// accumulator encoding (strict — unknown fields are rejected), and a
// campaign stats report, whose "metrics" field holds the accumulator.
func decodeShard(raw json.RawMessage) (*stats.Accumulator, error) {
	if cp, err := shard.Decode(raw); err == nil {
		if cp.Stats == nil {
			return stats.NewAccumulator(), nil
		}
		return cp.Stats, nil
	}
	if acc, err := strictAccumulator(raw); err == nil {
		return acc, nil
	}
	var wrap struct {
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &wrap); err == nil && len(wrap.Metrics) > 0 {
		return strictAccumulator(wrap.Metrics)
	}
	return nil, errors.New("not an accumulator, checkpoint, or stats report")
}

// strictAccumulator decodes an accumulator encoding, rejecting unknown
// fields so a mis-shaped upload fails loudly instead of merging zeros, and
// an accumulator Merge cannot fold (Accumulator.Check).
func strictAccumulator(raw []byte) (*stats.Accumulator, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	acc := stats.NewAccumulator()
	if err := dec.Decode(acc); err != nil {
		return nil, err
	}
	if err := acc.Check(); err != nil {
		return nil, err
	}
	return acc, nil
}

// handleExperiments serves GET /v1/experiments: the registry's specs.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", r.Method+" not allowed")
		return
	}
	type expInfo struct {
		ID       string             `json:"id"`
		Title    string             `json:"title"`
		Paper    string             `json:"paper"`
		Defaults experiments.Params `json:"defaults,omitempty"`
	}
	specs := experiments.Registry()
	out := struct {
		Experiments []expInfo `json:"experiments"`
	}{Experiments: make([]expInfo, len(specs))}
	for i, sp := range specs {
		out.Experiments[i] = expInfo{ID: sp.ID, Title: sp.Title, Paper: sp.Paper, Defaults: sp.Defaults}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleExperiment serves POST /v1/experiments/{id}: run one registered
// experiment synchronously, with optional parameter overrides
// ({"params": {"n": 6, ...}}), and reply with its Report. An override
// must pass experiments.Spec.With, and one rule more: the run is inline —
// no slot, no cancellation — and the registry's costs grow exponentially
// in its size parameters, so no value but "seed" may exceed its default.
// Refusals are bad_params; cmd/experiments -params has no such cap.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", r.Method+" not allowed")
		return
	}
	if s.sched.Draining() {
		writeErr(w, ErrDraining)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/experiments/")
	sp, ok := experiments.Lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no experiment "+id)
		return
	}
	var body struct {
		Params experiments.Params `json:"params"`
	}
	// A body holding no JSON value, however it is framed, means no overrides.
	if err := decodeBody(r.Body, &body); err != nil && err != io.EOF {
		writeDecodeError(w, err)
		return
	}
	p, err := sp.With(body.Params)
	for key, v := range body.Params {
		if err == nil && key != "seed" && v > sp.Defaults[key] {
			err = fmt.Errorf("experiment %s: %s=%d is past its default %d: %w", sp.ID, key, v, sp.Defaults[key], kset.ErrBadParams)
		}
	}
	if err != nil {
		writeErr(w, fmt.Errorf("service: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, sp.Run(p))
}
