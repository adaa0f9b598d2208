// Package service is ksetd's agreement-as-a-service core: the HTTP+JSON
// control plane over the kset facade's campaign, sweep and experiment
// machinery.
//
// A client POSTs a declarative JobSpec — problem parameters, condition,
// executor, scenario source, optional crash/fault adversaries, optional
// degree sweep — to /v1/campaigns. Compile turns the spec into a
// validated kset.System plus scenario stream (or sweep grid), reusing the
// facade's sentinel errors so malformed submissions become structured
// 400s with machine-readable codes (bad_params, domain_too_large,
// bad_input). Accepted jobs enter their tenant's bounded FIFO queue, and
// all tenants' queues together are bounded too; the Scheduler dispatches
// queues round-robin across tenants into a bounded pool of run slots, so
// no tenant can starve another.
//
// Each running job reads its campaign's shards through a kset.Progress
// handle and publishes periodic snapshots to its event log, which keeps
// the newest one; GET /v1/campaigns/{id}/events replays that log as
// server-sent events and follows it live to the terminal event. A
// finished job is that log and a few scalars, and only the 256 most
// recently finished jobs are kept, so the daemon's memory is bounded
// however long it runs. The terminal "stats" event carries the campaign's
// own Wait() statistics — worker-count-invariant and byte-identical to
// running the same job through RunCampaign in-process. DELETE (or a
// waiting client's disconnect) cancels a job through its context; Drain
// rejects new work while accepted jobs run to completion, which is how
// cmd/ksetd turns SIGTERM into a graceful exit.
package service
