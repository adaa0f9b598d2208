package service

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubJob builds a queue-only job (never run through a campaign).
func stubJob(id, tenant string) *Job {
	return newJob(id, &CompiledJob{Spec: JobSpec{Tenant: tenant}})
}

// TestSchedulerRoundRobinFairness enqueues four tenants' backlogs before
// the dispatcher starts and pins the exact dispatch order: with one run
// slot, the scheduler must cycle tenants first-seen round-robin, so a
// tenant with a deep queue cannot starve the others.
func TestSchedulerRoundRobinFairness(t *testing.T) {
	var (
		mu    sync.Mutex
		order []string
	)
	done := make(chan struct{})
	const total = 12
	s := NewScheduler(1, 16, func(j *Job) {
		mu.Lock()
		order = append(order, j.Tenant)
		if len(order) == total {
			close(done)
		}
		mu.Unlock()
	})

	// t1 floods first; t2..t4 arrive after with shallower queues.
	for _, tenant := range []string{"t1", "t1", "t1", "t1", "t1", "t1", "t2", "t2", "t3", "t3", "t4", "t4"} {
		if err := s.Enqueue(stubJob("j", tenant)); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	defer s.Stop()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("dispatched %d/%d jobs", len(order), total)
	}

	want := []string{
		"t1", "t2", "t3", "t4", // one round across every tenant
		"t1", "t2", "t3", "t4", // again, while every queue is non-empty
		"t1", "t1", "t1", "t1", // only t1's backlog remains
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
}

// TestSchedulerForgetsIdleTenants: 20 000 jobs from 20 000 tenants,
// submitted as fast as the queue takes them, leave no trace once they
// have run. While they run, the tenants the scheduler
// holds are exactly those with a queued job (each has one here, so at
// most s.queued of them); after Drain it holds none.
func TestSchedulerForgetsIdleTenants(t *testing.T) {
	const tenants = 20000
	var s *Scheduler
	var bad atomic.Int64
	s = NewScheduler(1, 2, func(*Job) {
		s.mu.Lock()
		if len(s.order) != len(s.queues) || int64(len(s.order)) > int64(s.queued) {
			bad.Add(1)
		}
		s.mu.Unlock()
	})
	s.Start()
	defer s.Stop()
	for i := 0; i < tenants; i++ {
		err := s.Enqueue(stubJob("j", strconv.Itoa(i)))
		for errors.Is(err, ErrQueueFull) { // maxQueuedJobs are waiting
			runtime.Gosched()
			err = s.Enqueue(stubJob("j", strconv.Itoa(i)))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if n := bad.Load(); n > 0 {
		t.Errorf("%d dispatches saw a tenant without queued jobs", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) != 0 || len(s.queues) != 0 {
		t.Errorf("after Drain the scheduler holds %d tenants in order, %d queues; want none", len(s.order), len(s.queues))
	}
}

// TestSchedulerQueueBound pins the per-tenant bound: the overflow
// submission fails with ErrQueueFull while other tenants still enqueue.
func TestSchedulerQueueBound(t *testing.T) {
	s := NewScheduler(1, 2, func(j *Job) {})
	for i := 0; i < 2; i++ {
		if err := s.Enqueue(stubJob("j", "greedy")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Enqueue(stubJob("j", "greedy")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow enqueue: %v, want ErrQueueFull", err)
	}
	if err := s.Enqueue(stubJob("j", "polite")); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
}

// TestSchedulerGlobalQueueBound pins the bound across tenants: with the
// dispatcher not started, maxQueuedJobs jobs from as many tenants queue,
// and one more, from a tenant of its own, fails with ErrQueueFull.
func TestSchedulerGlobalQueueBound(t *testing.T) {
	s := NewScheduler(1, 2, func(j *Job) {})
	for i := 0; i < maxQueuedJobs; i++ {
		if err := s.Enqueue(stubJob("j", strconv.Itoa(i))); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if err := s.Enqueue(stubJob("j", "one-more")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("enqueue past %d queued jobs: %v, want ErrQueueFull", maxQueuedJobs, err)
	}
}

// TestSchedulerDrainRejects pins the drain contract at the scheduler
// level: draining rejects new work, waits out the backlog and returns.
func TestSchedulerDrainRejects(t *testing.T) {
	ran := make(chan string, 8)
	s := NewScheduler(2, 8, func(j *Job) { ran <- j.Tenant })
	s.Start()
	defer s.Stop()
	for i := 0; i < 4; i++ {
		if err := s.Enqueue(stubJob("j", "a")); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := len(ran); got != 4 {
		t.Fatalf("drained with %d/4 jobs run", got)
	}
	if err := s.Enqueue(stubJob("j", "a")); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain enqueue: %v, want ErrDraining", err)
	}
}
