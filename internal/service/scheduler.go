package service

import (
	"context"
	"errors"
	"slices"
	"sync"
)

// ErrQueueFull rejects a submission whose tenant queue, or the
// scheduler's queue as a whole, is at capacity (HTTP 429).
var ErrQueueFull = errors.New("service: queue full")

// maxQueuedJobs bounds the jobs queued across all tenants, which the
// per-tenant bound alone does not: a client that invents tenant names
// would queue without limit. A queued job holds its compiled spec, about
// 0.25 MB for a 1024-pattern crash family, so the queue holds at most
// about 1 GB.
const maxQueuedJobs = 4096

// ErrDraining rejects submissions while the daemon drains for shutdown
// (HTTP 503).
var ErrDraining = errors.New("service: draining, not accepting jobs")

// Scheduler dispatches queued jobs into a bounded pool of run slots with
// round-robin fairness across tenants: each tenant has its own bounded
// FIFO queue, all of them together hold at most maxQueuedJobs, and the
// dispatcher cycles the tenants with queued jobs in
// the order their queues last became non-empty, so a tenant flooding its
// queue delays only itself. A tenant whose queue empties is forgotten:
// the scheduler holds only tenants with work waiting, however many names
// clients invent. Draining flips the scheduler into shutdown mode: new
// submissions are rejected while everything already accepted runs to
// completion.
type Scheduler struct {
	run       func(*Job)
	maxActive int
	maxQueued int

	mu       sync.Mutex
	cond     *sync.Cond
	queues   map[string][]*Job // non-empty queues only
	order    []string          // the keys of queues, in dispatch order
	next     int               // index into order of the next tenant
	active   int
	queued   int
	draining bool
	stopped  bool
	started  bool
}

// NewScheduler builds a scheduler with maxActive concurrent run slots
// and per-tenant queues bounded at maxQueued; run executes one job and
// must not return before the job is terminal. Call Start to begin
// dispatching.
func NewScheduler(maxActive, maxQueued int, run func(*Job)) *Scheduler {
	if maxActive < 1 {
		maxActive = 1
	}
	if maxQueued < 1 {
		maxQueued = 1
	}
	s := &Scheduler{
		run:       run,
		maxActive: maxActive,
		maxQueued: maxQueued,
		queues:    make(map[string][]*Job),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Start launches the dispatcher. Separate from construction so tests can
// enqueue a full workload first and observe a deterministic dispatch
// order.
func (s *Scheduler) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go s.dispatch()
}

// Enqueue accepts a job into its tenant's queue, unless that queue or the
// scheduler's whole queue is full.
func (s *Scheduler) Enqueue(j *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.stopped {
		return ErrDraining
	}
	q := s.queues[j.Tenant]
	if len(q) >= s.maxQueued || s.queued >= maxQueuedJobs {
		return ErrQueueFull
	}
	if q == nil {
		s.order = append(s.order, j.Tenant)
	}
	s.queues[j.Tenant] = append(q, j)
	s.queued++
	s.cond.Signal()
	return nil
}

// Draining reports whether the scheduler is in shutdown mode.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain flips the scheduler into shutdown mode and blocks until every
// accepted job has finished, or until ctx expires (leaving the remaining
// work running).
func (s *Scheduler) Drain(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	s.cond.Broadcast()
	for (s.queued > 0 || s.active > 0) && ctx.Err() == nil {
		s.cond.Wait()
	}
	return ctx.Err()
}

// Stop halts the dispatcher without waiting for queued work; running
// jobs keep their slots until they return. Queued jobs stay queued
// forever, so Stop is for teardown after Drain (or in tests).
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// pick pops the next job in round-robin tenant order; the caller holds
// mu. It returns nil when every queue is empty. A tenant whose queue it
// empties leaves order, and the tenant after it takes its index.
func (s *Scheduler) pick() *Job {
	if len(s.order) == 0 {
		return nil
	}
	t := s.order[s.next]
	q := s.queues[t]
	if len(q) == 1 {
		delete(s.queues, t)
		s.order = slices.Delete(s.order, s.next, s.next+1)
	} else {
		s.queues[t] = q[1:]
		s.next++
	}
	if s.next >= len(s.order) {
		s.next = 0
	}
	s.queued--
	return q[0]
}

// dispatch is the scheduler loop: wait for a free slot and a queued job,
// pop in round-robin order, run in a fresh goroutine.
func (s *Scheduler) dispatch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped {
			return
		}
		if s.active < s.maxActive {
			if j := s.pick(); j != nil {
				s.active++
				go s.runSlot(j)
				continue
			}
		}
		s.cond.Wait()
	}
}

// runSlot runs one job and releases its slot.
func (s *Scheduler) runSlot(j *Job) {
	defer func() {
		s.mu.Lock()
		s.active--
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	s.run(j)
}
