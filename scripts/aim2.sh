#!/usr/bin/env bash
# ROADMAP aim 2 ("the same behaviour from the least code") as a command.
# Prints four counts and fails if any exceeds the value recorded below —
# a ratchet: a later PR lowers a limit, or justifies raising it in the
# same diff.
#
#   (a) product lines of every crate: for every file under
#       crates/*/src (bins included), the lines above its first
#       `#[cfg(test)]` (comments and blanks included — the rule ROADMAP's
#       figures use), printed per crate and gated on the workspace total,
#       so a line moved from one crate to another is not a line removed;
#   (b) the same count over ml + core + serve alone — the serving path,
#       whose limit may only go down;
#   (c) `unsafe` keyword sites in product and test sources of every crate
#       and the root package (comment lines excluded);
#   (d) `pub` fields across the thirteen configuration structs.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# PR 24 raised the workspace limit by exactly its net, 20,576 -> 20,609
# (+33): `codec` +40 -- the table-sliced CRC-32 is +31 (fifteen more
# tables to build and a 16-byte step in place of a 1-byte one; the bytewise
# loop moved under `cfg(test)` as its oracle), the frame reader that no
# longer allocates on a header's word +7, the frame header written once
# +2 -- and `serve` -7, which lowered the serving-path limit 8,735 -> 8,728
# (pruning stale `snap-*.bin.tmp` +13; `WalWriter`'s unread `path` and its
# hand-written `Debug` -13, four durable-counter reads through one closure
# -7).
#
# PR 25 lowered all three (net -5 workspace: ml -1, core -2, baselines -3,
# data +1; -3 ml + core + serve): IRLS's resolution stop, its docs and
# `LogisticRegression::objective` (the bench's contract check) cost what
# `LogisticConfig::{l2, max_iter}` becoming constants and deleting the
# `fit_view` alias returned. Config fields 38 -> 36: the pattern below
# skipped `l2` (a digit) until this PR, so the parent's "37" was 38.
#
# The restart without a post-recovery snapshot left both line limits
# where they were: its net is 0 (all `serve`). Recovery without that
# snapshot -- each replayed WAL segment and the directory fsynced,
# stranded `.tmp`s deleted -- is +13, the snapshot lock +4, the counter
# docs +2 and the shared `sync_dir` +4. Dropping `prune_dir`'s `.tmp`
# branch returned 8, `EngineCore::new_persistent` taking over the
# directory scan both constructors repeated 10, one shared
# poison-tolerant `relock` 3, and admission through `Shard::adopt_job` 2.
#
# NURD-TL as a `NurdPredictor` with a donor prior lowered both line limits
# by its net, -128 (all `core`; 20,604 -> 20,476 and 8,725 -> 8,597):
# `transfer.rs` -182 (the second predictor, its `OnlinePredictor` impl and
# snapshot format; `DonorModel` gained a width and a batch scorer),
# `refit.rs` -11 (`refit_on` and its `targets_stable` flag), `lib.rs` +2
# (module docs), `model.rs` +63 (`with_prior`, the residual refit, the
# prior's scoring pass and `median`).
#
# One storage seam lowered both line limits by its net, -9 (all `serve`;
# 20,476 -> 20,467 and 8,597 -> 8,588), and config fields 36 -> 35
# (`PersistenceConfig::fault`): `persist.rs` -75 (`FaultInjector`, its
# `WalWrite` verdicts and the config field; `sync_dir` moved into the
# seam), `wal.rs` -51 (`CutShort`, `FRAME_HEADER`, the dead writer and its
# three-way append), `disk.rs` +86 (the `Disk` / `DiskFile` traits and
# `RealDisk`), `engine.rs` +28 (`EngineCore::fail` and its failure slot,
# a failed snapshot or WAL flush failing the service, the disk handle),
# `service.rs` -6 (`DrainService`'s failed flag gone; recovery split into
# `recover_inner` + `restore` so tests can hand it a disk), `snapshot.rs`
# +6, `shard.rs` +2, `lib.rs` +1.
#
# Parallel WAL replay raised both line limits by exactly its net, +8 (all
# `serve`; 20,467 -> 20,475 and 8,588 -> 8,596): `service.rs` +6 (the
# drain-worker count resolved once in `ServiceConfig::workers` for the
# drain loop and recovery, the generation-at-a-time pool loop, its docs;
# the sequential loop and the `recovery_fallbacks` `if let` gone),
# `engine.rs` +3 (`replay_segment` reads, applies and fsyncs one segment
# in place of `replay_recovered`), `observer.rs` +1, `disk.rs` -2
# (`sync_dir` returns the directory fsync's error).
#
# One reproduction command lowered the workspace limit by exactly its net,
# -190 (20,475 -> 20,285; ml + core + serve unchanged at 8,596): `bench`
# -77 (fourteen bins with their own parsing became one `repro` binary over
# one parser and one pool evaluator; the hand-rolled thread queue, the
# per-bin suite loops and three copies of the JCT and decile averages
# went), `baselines` -113 (seven per-checkpoint `OnlinePredictor` impls
# became one `Adapter` over a fit-and-flag body each, and the registry's
# outlier rows one line each).
#
# The flat task series raised the workspace limit by exactly its net, +83
# (20,285 -> 20,368; ml + core + serve unchanged at 8,596), for
# `ingest_floor` `setup_s` 0.52x: `data` +42 (`TaskRecord` keeps one
# snapshot-major buffer behind `from_flat` +30 with its layout docs; the CSV
# reader rejects a ragged series and a job without features instead of
# panicking in `TaskRecord::new` +12), `trace` +41 (the O(tasks) node
# overlay and a shared `schedule` +13, the key-sorted merge both lowerings
# share +18, snapshots written into the task's buffer +11, `lognormal`
# without its constant median -1). The per-snapshot series, the quadratic
# overlay and the whole-event sort moved under `cfg(test)` as the oracles
# `prop_suites_and_streams_equal_the_oracles` compares against.
#
# One counter table lowered both line limits by its net, -65 (all
# `serve`; 20,368 -> 20,303 and 8,596 -> 8,531): `snapshot.rs` -44
# (`PersistedCounters` and its hand-written encode and decode; the header
# codec loops over `Counter::PERSISTED`), `engine.rs` -37 (`stats()`,
# `overload()`, the report's event total and `install_snapshot` read the
# table; `PersistHandle`'s four atomics gone), `lifecycle.rs` -9
# (`OverloadCounters::merged`), `service.rs` -1, `shard.rs` +26 (the
# eighteen named atomics became the `Counter` enum, its `PERSISTED`
# order and a two-method table).
#
# One start hook lowered both line limits by its net, -110 (20,303 ->
# 20,193; ml + core + serve -3, 8,531 -> 8,528): `data` -44 (`JobContext`,
# `JobContext::stream` and `OnlinePredictor::begin_job` gone; the one
# `StreamContext` carries the threshold docs), `runtime` -55
# (`ThreadPool::par_for_chunks` and its docs), `linalg` -20
# (`MatrixView::Rows`, its match arms and two `From` impls), `ml` -4
# (`predict_view_into_pooled`'s and `score_chunk`'s `Rows` arms; the two
# `&[Vec<f64>]` fits borrow their rows as slices, +1 each), `sim` -2
# (`replay_job` calls `begin_stream`), `serve` +1 (a history record that
# holds an event the job refuses is a restore error, not a panic; a
# lifecycle event is refused by `apply`), `baselines` +12 (Wrangler draws
# its sample in `new(&job)` and fits in `begin_stream`, +5; the factory
# takes the job, +3; the crate example builds a job, +4), `bench` +2.
#
# The block-by-block fleet lowering raised the workspace limit by exactly
# its net, +56 (20,193 -> 20,249; ml + core + serve unchanged at 8,528),
# for `giant_alibaba` `setup_s` 0.77x: `trace` +33 (a heap of stream heads
# that moves each stream's run of equal-time events at once, its key
# function and docs, in place of the 32-byte key sort and gather), `data`
# +23 (`job_stream` fills one buffer reserved to its bound, through
# `push_events` and `event_bound` shared with `job_events`, +13;
# `take_vec`, through which feature vectors and node lists decode and
# which refuses a count its payload cannot hold before reserving, +16,
# less the `Placed` arm's own loop, -6).
#
# Config fields no caller set, and one way in, lowered both line limits by
# their net, -26 (20,249 -> 20,223) and -1 (8,528 -> 8,527), and config
# fields 35 -> 29: `TreeConfig::{lambda, min_split_gain, max_bins}`,
# `GbtConfig::learning_rate`, `WarmRefitConfig::max_trees` and
# `ServiceConfig::drain_batch` became private constants, their guards
# gone (`ml` -7, `core` -5: the cap check reads `MAX_TREES`); `trace` -15
# (`fleet_events`) and `data` -10 (`job_events`; its frozen-after-completion
# contract now heads `job_stream`'s docs); `serve` +11: `service.rs` -3
# (`admit` and the batch field gone, `start_on`'s directory fsync added),
# `wal.rs` +8 (a drained batch is one append and one fsync under
# `Always`, and an `Always` roll fsyncs the directory), `shard.rs` +6 (the
# blob-mode job record checked against its spec and its feature width,
# less three `match`es on the WAL slot and the `min` guard the check makes
# redundant).
#
# Set-up on every core raised the workspace limit by exactly its net,
# +101 (20,223 -> 20,324; ml + core + serve unchanged at 8,527), for
# `ingest_floor` `setup_s` 0.60x: `trace` +94 (`parallel.rs` +57, the
# scoped-thread fan-out that hands out jobs one index at a time, returns
# results in job order and re-raises a worker's panic, with its docs;
# `fleet.rs` +22, the arrival offsets drawn in job order before the
# fan-out and an entry point the tests pick thread counts through;
# `generator.rs` +14, the same for suites; `lib.rs` +1), `codec` +7 (a
# decoded `Vec<T>` reserves no more `T`s than the bytes behind its count
# hold). The balancing fix left `serve` where it was.
#
# A waiting thread lending its core to model work raised both line limits
# by exactly its net, +154 (all `serve`; 20,324 -> 20,478 and 8,527 ->
# 8,681), for `fleet_google` `events_per_s`: `engine.rs` +115 (the
# blocked push's cold path, `help` -- one gated drain on the caller, its
# panic kept for `close` -- and `settle`, the one waiting loop of
# `quiesce` and `close`, with their docs; `EngineStats::caller_drained`;
# `fail_first`, a `fail` that reports whether it recorded the failure;
# `DRAIN_BATCH` moved in from `service.rs`), `shard.rs` +33 (the `CallerDrained` counter, the
# `PredictsInFlight` gauge beside the per-event tally, and the drop guard
# that raises it around the two predictor calls), `service.rs` +3
# (`quiesce` and `close` call `settle`; their docs), `lifecycle.rs` +2,
# `lib.rs` +1.
#
# The drain service on plain threads, and a lane walker without
# `unsafe`, lowered both line limits by their net, -78 (20,478 -> 20,400
# and 8,681 -> 8,603), and `unsafe` sites 4 -> 1 (`Scope::spawn`'s
# transmute is the one left): `service.rs` -78 (the coordinator thread,
# its private pool, `DrainService` with its `Drop` and `join_panic`, the
# shutdown flag and `WORKER_PANICKED` gone; one lifecycle mutex in place
# of two), `engine.rs` +11 (`guarded`, `take_panic` and `is_drained` in
# place of `caller_panic`, `take_caller_panic`, `CALLER_PANICKED` and
# `help`'s own `catch_unwind`), `persist.rs` +7
# (`DirScan::wal_generations`), `ml` -18 (the walker's three `unsafe`
# sites and their safety contract became plain indexing).
#
# One feature table per job raised both line limits by exactly its net,
# +39 (20,400 -> 20,439) and +33 (8,603 -> 8,636), for `ingest_floor`
# `events_per_s`: `shard.rs` +33 (`describe`, which overwrites a task's
# row or appends one, and `row`, which lends it to the barrier and the
# encoder, with their docs and the table's; the blob decoder appending
# rows as they decode and flagging a ragged one; `straggled` computed once
# per finalization and passed to `report`), `sim` +6 (the F1 timeline as
# prefix sums of per-checkpoint flag counts; the per-checkpoint rescan it
# replaces moved under `cfg(test)` as the oracle of
# `prop_prefix_sum_timeline_is_bit_identical_to_the_rescan`).
#
# One way to persist a job lowered both line limits by its net, -42 (all
# `serve`; 20,439 -> 20,397 and 8,636 -> 8,594): `shard.rs` -44 (history
# mode -- the retained events, their clone on every accepted event, the
# tag-1 encode and the decode that replayed them -- gone; a durable
# shard's admission probe moved from `JobState::new` into the `JobStart`
# arm, which also reserves the task table fallibly and refuses what it
# cannot hold; the per-task `actioned` marks folded into `TaskState`; the
# decoder checks a record's task count against its spec before sizing
# anything), `engine.rs` +2 (`rejected_events` documents the refused
# admission; `decode` takes no warmup fraction).
#
# The Table 3 roster as one crate lowered both line limits by their net,
# -125 (20,397 -> 20,272) and -85 (8,594 -> 8,509): `nurd-outlier` and
# `nurd-survival` folded into `baselines` as crate-private modules with
# `StandardScaler` out of `ml` (`ml` -72: the scaler's 71 lines and its
# two declarations, one doc line added; `baselines` +2,215 for the 2,312
# lines it took in, -97: the crates' roots, the thirteen
# `OutlierDetector::name` impls, the `Detector` wrapper and three doc
# examples that became unit tests),
# and `BarrierView` lost `phase` and `backlog` (`serve` -13: the
# parameter `apply_batch`, `apply` and `barrier` passed down and the
# view's two fields; `ingest`'s unbounded branch, which the overload
# match already covered; `data` -13 with the determinism contract's
# exception, `mitigate` -1). The count now also stops at an inner
# `#![cfg(test)]`, so a test file that opens with one counts as test code.
#
# A batch applied as runs of one job raised both line limits by exactly
# its net, +17 (20,272 -> 20,289) and +37 (8,509 -> 8,546), for
# `ingest_floor` `events_per_s`: `shard.rs` +17 (the run loop -- one
# `jobs` and one `events_seen` lookup per run, a run that ends at its
# job's finalization or before a lifecycle event -- +9, and its docs in
# `apply_batch` +8), `engine.rs` +3 (WAL replay applies each stretch of
# records routed to one shard as one batch), `lib.rs` +3 (the run walk in
# the determinism docs). `JobPhase` moved from `data` (-20: the enum and
# its export) into `lifecycle.rs` (+14: the enum in place of the
# four-line re-export), so the move alone adds 14 lines to ml + core +
# serve and takes 6 off the workspace.
#
# Durability by count lowered both line limits by its net, -43 (20,289 ->
# 20,246) and -42 (8,546 -> 8,504), and config fields 29 -> 28
# (`PersistenceConfig::{fsync, flush_interval}` became one
# `max_unsynced_events`): `service.rs` -34 (`flush_worker`, the
# `nurd-serve-flush` branch of `launch` and the `Duration` import gone;
# one `spawn_drain` in place of the generic `spawn`), `persist.rs` -10
# (`FsyncPolicy` and its docs, the `std::time` import and a field; the
# module docs state the bound in events), `lib.rs` +2 (the crate docs
# name the bound), `wal.rs` 0 (the `unsynced` count and its bound in
# place of `policy` and `dirty`; `rotate` fsyncs the directory
# unconditionally), `bench` -1 (the crate docs name two benches, not
# six; the four retired benches sat under `benches/`, which this count
# does not read).
#
# One mitigation executor lowered the workspace limit by its net, -71
# (20,246 -> 20,175; ml + core + serve unchanged at 8,504): `sim` -75
# (`scheduler.rs`'s 232 lines -- `simulate_jct`, `SchedulerConfig`,
# `JctOutcome`, the `StdRng` list scheduler and its float wrapper -- gone;
# `mitigation.rs` +122 for the machine pool every run now goes through:
# the stamped free-machine heap keyed by time bits, the copy queue, the
# clone race that frees its original's machine early,
# `MitigationSimConfig::machines` and the module docs that state the
# schedule, less the per-action ledger loop it replaces; `replay.rs` +35 for
# `ReplayOutcome::relaunches`; `lib.rs` 0), `bench` +2 (`mean_jct_reduction`
# calls `execute_actions` on the relaunches), `data` +2 (`ActionRecord::time`
# documented as the task's elapsed time).
#
# The closed loop keeping only what a caller reads lowered both line
# limits by its net, -296 (20,175 -> 19,879) and -13 (8,504 -> 8,491):
# `mitigate` -161 (`TopKPolicy`, `BandedClonePolicy` and their factories;
# six harness fields no caller set became private constants), `health`
# -105 (the per-barrier suspicion: the `observe_barrier` override, the
# barrier map and its blob section, `NodeStats::suspicion` and its fold),
# `serve` -13 (`BarrierScratch::newly_flagged` and its per-barrier
# rebuild, the `Ignore` filter and arm), `sim` -12 (one donor filter on
# the schedule's finish times in place of the per-node sorted pools),
# `data` -11 (`MitigationAction::Ignore`, `BarrierView::flagged`; the
# discriminants are the wire tags, so `encode` is one cast),
# `bench` +6 (`repro`'s machine counts derived from the suite). The
# config census widened to the closed loop's four structs
# (`FleetConfig`, `NodeFleetConfig`, `HealthConfig`,
# `MitigationSimConfig`), so a knob added there shows: 46 at the parent
# by the wider count, 40 after the six fields went.
#
# One way in for a trace lowered both line limits by its net, -288
# (19,879 -> 19,591) and -7 (8,491 -> 8,484): `data` -281 (`csv.rs`'s 257
# product lines -- `read_jobs_csv`, `read_job_csv`, `write_jobs_csv` and
# the parser behind them -- gone; `error.rs` -25, `DataError::{Io, Parse}`,
# their `Display` arms, the `source` match and `From<io::Error>`;
# `lib.rs` +1, the module and its export out, two doc lines in saying
# the crate performs no I/O), `serve` -7 (`shard.rs`: the barrier's two
# flag loops are one bisected guard after one predict call; decode's
# bookkeeping check also refuses an action log naming another job or a
# task past the job, so `adopt_actions` indexes).
#
# One performance instrument lowered both line limits by its net, -11
# (19,591 -> 19,580) and -7 (8,484 -> 8,477): `ml` -15
# (`LogisticRegression::objective` became the test helper of the IRLS
# stopping-contract test), `bench` -4 (the crate docs name no
# microbenchmarks; the two retired benches sat under `benches/`, which
# this count does not read), `serve` +8 (decode also refuses an action
# at a barrier not yet closed, and `adopt_actions` one task actioned
# twice).
#
# One ingress discipline lowered both line limits by its net, -79
# (19,580 -> 19,501) and -55 (8,477 -> 8,422): `serve` -55 (the
# two lossy overload variants and their ingest arms, their two counters,
# `EngineCore::overload`, `EngineReport::overload` and the docs that
# described a choice of policy, net of the new refusal in `restore` when
# every snapshot is refused and WAL generation 0 is gone), `runtime` -24
# (`Channel`'s evicting send and its docs). Config fields stay 40:
# `EngineConfig::overload` is pinned by `benchmark/`.
MAX_WORKSPACE_LINES=19501
MAX_PRODUCT_LINES=8422
MAX_UNSAFE_SITES=1
MAX_CONFIG_FIELDS=40

workspace=0
total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    lines=$(find "$dir"src -name '*.rs' -print0 | xargs -0 awk \
        'FNR == 1 { test = 0 } /#!?\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }')
    printf 'product lines  %-13s %6d\n' "$crate" "$lines"
    workspace=$((workspace + lines))
    case $crate in ml | core | serve) total=$((total + lines)) ;; esac
done
printf 'product lines  %-13s %6d   (limit %d)\n' workspace "$workspace" "$MAX_WORKSPACE_LINES"
printf 'product lines  %-13s %6d   (limit %d)\n' ml+core+serve "$total" "$MAX_PRODUCT_LINES"

unsafe_sites=$(grep -rnw unsafe --include='*.rs' crates/*/src crates/*/tests src tests examples |
    grep -vcE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
printf 'unsafe sites                 %6d   (limit %d)\n' "$unsafe_sites" "$MAX_UNSAFE_SITES"

config_fields=0
for config in TreeConfig GbtConfig LogisticConfig NurdConfig WarmRefitConfig \
    EngineConfig BalanceConfig ServiceConfig PersistenceConfig \
    FleetConfig NodeFleetConfig HealthConfig MitigationSimConfig; do
    fields=$(cat crates/*/src/*.rs | awk -v name="$config" '
        $0 ~ "^pub struct " name " \\{" { inside = 1; next }
        inside && /^}/ { inside = 0 }
        inside && /^    pub [a-z0-9_]+:/ { n++ }
        END { print n + 0 }')
    config_fields=$((config_fields + fields))
done
printf 'config pub fields            %6d   (limit %d)\n' "$config_fields" "$MAX_CONFIG_FIELDS"

status=0
if ((workspace > MAX_WORKSPACE_LINES)); then
    echo "aim2: workspace product lines $workspace exceed the recorded $MAX_WORKSPACE_LINES" >&2
    status=1
fi
if ((total > MAX_PRODUCT_LINES)); then
    echo "aim2: ml + core + serve product lines $total exceed the recorded $MAX_PRODUCT_LINES" >&2
    status=1
fi
if ((unsafe_sites > MAX_UNSAFE_SITES)); then
    echo "aim2: unsafe sites $unsafe_sites exceed the recorded $MAX_UNSAFE_SITES" >&2
    status=1
fi
if ((config_fields > MAX_CONFIG_FIELDS)); then
    echo "aim2: config pub fields $config_fields exceed the recorded $MAX_CONFIG_FIELDS" >&2
    status=1
fi
exit $status
