package kset

// Option configures a System at construction time. Every parameter an
// option sets is validated once inside New, which is what keeps the
// System's Run hot path free of per-call validation.
type Option func(*System)

// WithParams fixes the problem instance (n, t, k, d, ℓ). Required.
func WithParams(p Params) Option {
	return func(s *System) { s.p = p; s.hasParams = true }
}

// WithCondition instantiates the algorithms with the given (x,ℓ)-legal
// condition. Required for every executor except Classical. An explicit
// condition is cloned at construction: vectors added to it or recognized
// sets changed after New are not seen by the System, and Condition()
// returns the clone.
func WithCondition(c Condition) Option {
	return func(s *System) { s.cond = c }
}

// WithExecutor selects the default algorithm the System runs: Figure2
// (the default), EarlyDeciding, Classical or Asynchronous. Individual
// campaign scenarios may still override it per run.
func WithExecutor(e Executor) Option {
	return func(s *System) { s.exec = e }
}

// WithWorkers sets the default campaign worker-pool size (default:
// GOMAXPROCS). Each worker owns its engine and protocol buffers, so the
// count bounds both parallelism and resident scratch memory.
func WithWorkers(n int) Option {
	return func(s *System) { s.workers = n }
}

// WithAsyncBudget bounds how many fruitless re-scans an undecided
// asynchronous process performs before giving up (default: a small bound
// derived from n that always suffices for in-condition inputs). The
// budget is counted in virtual scheduler steps, not wall-clock time, so
// runs stay deterministic: out-of-condition inputs give up after
// scans × n steps instead of blocking a real-time patience window.
func WithAsyncBudget(scans int) Option {
	return func(s *System) { s.asyncBudget = scans }
}
