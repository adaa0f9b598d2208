#!/usr/bin/env sh
# Benchmark-regression smoke gate: run the budgeted benchmarks briefly and
# fail when any allocs/op exceeds its checked-in budget. Allocation counts
# are deterministic enough for CI (unlike ns/op, which this gate ignores),
# so a regression in the hot analysis paths — the §3 lattice sweep, the
# §6.2 exhaustive adversary sweep, the campaign run loop — fails the build
# instead of landing silently.
#
# Usage: scripts/benchgate.sh [benchtime]
set -eu

benchtime="${1:-20x}"

cd "$(dirname "$0")/.."

# Budgets: benchmark name (exact, GOMAXPROCS suffix stripped) and the
# maximum allowed allocs/op at the short benchtime above, at -cpu 1: a
# campaign's set-up allocates per worker and a System has one worker per
# P, so with runs at zero the campaign budgets are counts for one worker
# (CollectorPath reads 47 at one, 74 at two). Values carry headroom over
# the measured steady state (864 / 9 / ~2 at PR 4) while sitting far below
# the pre-compiled-condition costs (47906 / 5129 / 50).
# CollectorPath runs one fixed 512-scenario stats-only campaign per op
# through the full results-plane pipeline (Observation → collector shards
# → deterministic join): its budget holds the collector observe path at
# ≤ 1 alloc/run (measured: 556 for 512 runs + campaign setup at PR 5;
# 47, all of it campaign setup, since PR 19 — a campaign run borrows the
# worker's scenario slot and allocates nothing, which is also what holds
# CampaignThroughput/campaign at 0 per run). The join gives the new keys
# of each breakdown one group slab (measured: 47 with a group per key, 42
# with the slab; the budget of 45 sits between).
# EngineTransport prices delivery on a recycled engine: the matrix arm
# has no transport — the campaign hot path, on the engine's shared row —
# and must stay allocation-free; the matrix-seam arm installs a
# rounds.MatrixTransport, the same delivery through the seam (an interface
# dispatch, not a cost: measured 0 at PR 22), and the warmed zero-fault
# faultnet arm — since PR 23 a decorator handing each Send's on-time
# survivors to that same MatrixTransport, from a scratch list sized in
# Reset, never per Send — must amortize to zero as well (measured: 0 / 0
# at PR 6 and at PR 23).
# The faultnet-storm arm injects every fault kind into plain values; the
# EngineRound storm arm does the same to a Figure-2 run, whose flood
# payloads are frozen when delayed or duplicated — before PR 17 one
# allocation per freezing Send (≈ 4.6 per n=8 fault_storm run, 77 per op
# of the n=64 arm), now overwritten in place from the copies the last run
# retired (measured: 0 / 0 at PR 17).
# SubmitPath is ksetd's submission loop — decode a JobSpec, compile it to
# a System + scenario stream, register and enqueue the job — which must
# stay flat for the daemon to absorb thousands of queued submissions on a
# 1-CPU container (measured: 30 at PR 7; 31 at PR 21, where newJob
# preallocates the three-slot event log).
# CompileRandomFailures decodes and compiles a spec whose crash family is
# 4 random patterns, the failures of a ksetd_jobs job: Compile draws every
# pattern in the POST handler, from one shared generator reseeded per
# pattern. Its budget sits between the two counts, so a fresh math/rand
# source per pattern (two allocations, ~5 kB) cannot return unnoticed
# (measured: 49 with a source per pattern, 41 with the shared one).
# CheckpointEncode prices one checkpoint emission — accumulator snapshot
# plus versioned JSON envelope. Its cost must scale with breakdown keys,
# never with the runs the checkpoint covers, so periodic checkpointing
# cannot regress the allocation-free campaign hot path (measured: 25
# while encoding/json encoded it and the snapshot copied a group per key;
# 8 with each breakdown's groups copied into one slab and the envelope
# appended, accumulator included, into a pooled buffer copied out once).
# Its budget of 11 sits between, so a group per key (12) or an encode by
# reflection cannot return unnoticed.
# WireEncode prices encoding one state-carrying data frame — since frame
# v2 (PR 20) the triple's three bytes, not a packed key — into a caller
# buffer: the per-copy cost of every wire-transport send and ksetpeer
# retransmission, which must stay allocation-free (measured: 0 at PR 9
# and at PR 20).
# The async-plane budgets (PR 10, re-read at PR 19): a warm scan is
# allocation-free on both in-process substrates — the scheduler's own
# register array hands out the array itself, the wait-free construction
# its published epoch (measured: 0 / 0); E10Async is one full
# virtual-scheduler agreement run (measured: 2, the Outcome it returns);
# AsyncCampaign is a fixed 512-scenario asynchronous campaign through
# pooled worker Runners (measured: 35, all campaign setup — 0 per run).
# ConditionIndex is one membership probe of an explicit condition at a
# vector size inside the range the old packed key covered (n=8) and one
# past it (n=16, where the string-key fallback cost 1 alloc/probe): the
# hashed member index must stay allocation-free on both (measured: 0).
# EngineRound is one n=64 classical run on a held core.Runner with a
# recycled Result, failure-free (clean) and with t mid-row crashes spread
# over the rounds (crashes: one more distinct prefix end, so one more
# Group.Step, per crash; the row is still folded once per round, each later
# Step extending the digest by the senders Round.Added lists). The per-run
# fold state lives in the Runner, and
# the engine hands the Runner's Groups the Round it holds, so both must
# stay allocation-free (measured: 0 / 0, also as Groups). The early arms are
# Runner.RunEarly under the same two patterns: the wrappers fold too and
# send from a per-process buffer, where boxing each send cost n·rounds
# (measured: 192 / 227 → 0 / 0 at PR 16). The figure2-crashes arm is
# Runner.RunCond at the benchmark's wide_sync shape — n=48, t=24, k=4,
# d=12, max condition m=8, the t crashes staggered over the rounds with
# mid-row prefixes — the run in which the round loop's own per-process
# cost is largest (measured: 0 at PR 24).
# Sweep/generator-fed is one fixed 4096-run campaign pulled from a
# generator — 1024 seeded random inputs × a 4-pattern crash family —
# whose worker draws every input into its own vector with its own
# reseeded generator: the per-run cost is zero and the rest is campaign
# set-up (measured: 1057 while each input was a fresh vector and each
# claim a new math/rand source; 31 since).
# LoopbackRun/pipe is one Figure-2 run at the benchmark's wire_udp shape
# (n=6, t=3, k=2, d=1, m=4, one mid-row crash) over a warmed
# PipeTransport, on a held core.Runner with a recycled Result: every copy
# is encoded and decoded back into the transport's own slots, where the
# decoder used to allocate a *StateMsg per flood-round copy (measured: 30
# → 0 at PR 25; the UDP Loopback shares that path).
# RunCheckpointed is Sweep/generator-fed's 4096-run stream on one worker
# through System.RunCheckpointed in 16 chunks of 256 runs, a checkpoint
# built per chunk. It is one campaign whose chunk ends are barriers, so the
# set-up is paid once and a chunk costs its checkpoint accumulator and its
# claim's iterator closures. Its budget sits between the two counts, so a
# campaign per chunk cannot return unnoticed (measured: 586 with a campaign
# per chunk, 175 with one campaign).
# FinishedJob runs one 256-run ksetd job to its terminal event in
# process. Each run is observed once, into the campaign's own shards,
# which a kset.Progress handle reads only on request, and the job encodes
# its stats once, its final snapshot being their metrics field. Its
# budget sits between the two counts, so a second collector or a second
# encode of the accumulator cannot return unnoticed (measured: 85 with a
# second collector, service.Progress, and two encodes; 58 with the handle
# and one encode). The job is read once before it runs, as the 202
# response reads it (measured: 64 while that read made the first run copy
# its shard, the stats were encoded by reflection and the join and the
# progress copy took a group per key; 43 with the read free, the stats
# appended and one group slab per breakdown). Its budget of 48 sits
# between, under the 49 that the first run's copy alone adds back.
budgets='
BenchmarkE1Lattice 2400
BenchmarkE9Adversary 400
BenchmarkCampaignThroughput/campaign 1
BenchmarkCollectorPath 45
BenchmarkEngineTransport/matrix 0
BenchmarkEngineTransport/matrix-seam 0
BenchmarkEngineTransport/faultnet 0
BenchmarkEngineTransport/faultnet-storm 0
BenchmarkSubmitPath 40
BenchmarkCompileRandomFailures 45
BenchmarkCheckpointEncode 11
BenchmarkWireEncode 0
BenchmarkSnapshotScan/registers 1
BenchmarkSnapshotScan/waitfree 1
BenchmarkE10Async 8
BenchmarkAsyncCampaign 64
BenchmarkConditionIndex/n8 0
BenchmarkConditionIndex/n16 0
BenchmarkEngineRound/clean 0
BenchmarkEngineRound/crashes 0
BenchmarkEngineRound/early-clean 0
BenchmarkEngineRound/early-crashes 0
BenchmarkEngineRound/storm 0
BenchmarkEngineRound/figure2-crashes 0
BenchmarkLoopbackRun/pipe 0
BenchmarkSweep/generator-fed 64
BenchmarkRunCheckpointed 200
BenchmarkFinishedJob 48
'

# Budgets on a benchmark's own metric: name, unit, maximum. FinishedJob
# reports the live heap one retained finished ksetd job costs (B/job, over
# 256 jobs of 256 runs): a finished job is its encoded event log, so the
# figure is a few events' bytes (measured: 1977 while the final snapshot
# was an encoding of its own, 1337 since it shares the stats event's
# bytes) and any return of a pinned System, progress handle or stats
# struct (≈ 8 kB before) fails.
metricbudgets='
BenchmarkFinishedJob B/job 4096
'

raw="$(go test -run '^$' -bench 'E1Lattice$|E9Adversary$|CampaignThroughput/campaign|CollectorPath$|EngineTransport|SubmitPath$|CompileRandomFailures$|FinishedJob$|CheckpointEncode$|WireEncode$|E10Async$|SnapshotScan|AsyncCampaign$|ConditionIndex|EngineRound|LoopbackRun/pipe$|Sweep/generator-fed$|RunCheckpointed$' \
	-benchmem -benchtime "$benchtime" -count 1 -cpu 1 . ./internal/rounds/ ./internal/service/ ./internal/wire/ ./internal/condition/)"
printf '%s\n' "$raw"

printf '%s\n' "$raw" | awk -v budgets="$budgets" -v metricbudgets="$metricbudgets" '
BEGIN {
    n = split(budgets, lines, "\n")
    for (i = 1; i <= n; i++) {
        if (split(lines[i], f, " ") == 2) budget[f[1]] = f[2] + 0
    }
    n = split(metricbudgets, lines, "\n")
    for (i = 1; i <= n; i++) {
        if (split(lines[i], f, " ") == 3) { munit[f[1]] = f[2]; mbudget[f[1]] = f[3] + 0 }
    }
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 2; i <= NF; i++) {
        if ($(i) == "allocs/op") allocs = $(i - 1) + 0
    }
    if (name in budget) {
        seen[name] = 1
        if (allocs > budget[name]) {
            printf "GATE FAIL: %s at %d allocs/op exceeds budget %d\n", name, allocs, budget[name]
            bad = 1
        } else {
            printf "gate ok:   %s at %d allocs/op (budget %d)\n", name, allocs, budget[name]
        }
    }
    if (name in mbudget) {
        for (i = 2; i <= NF; i++) if ($(i) == munit[name]) {
            mseen[name] = 1
            if ($(i - 1) + 0 > mbudget[name]) {
                printf "GATE FAIL: %s at %d %s exceeds budget %d\n", name, $(i - 1), munit[name], mbudget[name]
                bad = 1
            } else {
                printf "gate ok:   %s at %d %s (budget %d)\n", name, $(i - 1), munit[name], mbudget[name]
            }
        }
    }
}
END {
    for (name in budget) if (!(name in seen)) {
        printf "GATE FAIL: budgeted benchmark %s did not run\n", name
        bad = 1
    }
    for (name in mbudget) if (!(name in mseen)) {
        printf "GATE FAIL: %s reported no %s\n", name, munit[name]
        bad = 1
    }
    exit bad
}
'
