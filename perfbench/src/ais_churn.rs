//! `ais-churn`: the write-heavy mix.
//!
//! Materialized AIS with dark-vessel retractions, an identity select view
//! and a grouped-aggregate view, k = 2 replication with a crash and a
//! later revive, a `MemLog` write-ahead log with periodic checkpoints,
//! the AIS query suite after every cycle, and a cold
//! `WorkloadRunner::recover` at the end.

use crate::common::{
    batch_chunks, batch_rows, check_probes, probe, with_suite, Probe, RoundCtx, RoundOut,
    AIS_QUERIES, THREADS,
};
use crate::pregen::Pregenerated;
use crate::trace::{self, CycleShape, PreCycle, Trace};
use crate::util::{close, timed, Checks};
use array_model::{Region, ScalarValue};
use durability::{FsyncPolicy, LogStore, MemLog, SharedLog};
use elastic_core::PartitionerKind;
use query_engine::view::{AggKind, ViewDef};
use query_engine::{ops, ExecutionContext};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use workloads::ais::{BROADCAST, VESSEL};
use workloads::{
    AisWorkload, DurabilityConfig, FaultKind, FaultPlan, RunReport, RunnerConfig, SuiteReport,
    Workload, WorkloadRunner,
};

const CYCLES: usize = 8;
/// Broadcast rows generated per cycle (before the generator drops
/// duplicate positions).
const CELLS_PER_CYCLE: u64 = 20_000;
/// About one ship in eight goes dark each cycle.
const DARK_VESSEL_RATE: u32 = 8;
const INITIAL_NODES: usize = 4;
const NODE_CAPACITY: u64 = 1_500_000;
const PARTITIONER: PartitionerKind = PartitionerKind::KdTree;
const CHECKPOINT_EVERY: usize = 3;
/// Node 1 crashes at the start of this cycle...
const CRASH_CYCLE: usize = 2;
/// ...and is revived at the start of this one.
const REVIVE_CYCLE: usize = 5;
const IDENTITY_VIEW: &str = "ais/identity";
const AGG_VIEW: &str = "ais/mean_speed_by_chunk";

/// Operations one round attempts: each cycle, each expected query of
/// each suite run, and the recovery.
const PLANNED: u64 = (CYCLES * (1 + AIS_QUERIES.len()) + 1) as u64;

fn generator(seed: u64) -> AisWorkload {
    AisWorkload {
        cycles: CYCLES,
        scale: 1.0,
        seed,
        cells_per_cycle: CELLS_PER_CYCLE,
        dark_vessel_rate: DARK_VESSEL_RATE,
    }
}

fn config(log: SharedLog) -> RunnerConfig {
    RunnerConfig {
        node_capacity: NODE_CAPACITY,
        initial_nodes: INITIAL_NODES,
        partitioner: PARTITIONER,
        run_queries: false,
        ingest_threads: THREADS,
        replication: 2,
        fault_plan: Some(
            FaultPlan::new(0)
                .at(CRASH_CYCLE, FaultKind::Crash(1))
                .at(REVIVE_CYCLE, FaultKind::Revive(1)),
        ),
        durability: Some(DurabilityConfig {
            log,
            checkpoint_every: CHECKPOINT_EVERY,
            fsync_policy: FsyncPolicy::PerCycle,
        }),
        ..RunnerConfig::default()
    }
}

fn speed(values: &[ScalarValue]) -> i32 {
    match values[0] {
        ScalarValue::Int32(v) => v,
        ref other => panic!("speed is int32, got {other:?}"),
    }
}

fn chunk_cell(coords: &[i64]) -> Vec<i64> {
    vec![coords[1].div_euclid(4), coords[2].div_euclid(4)]
}

/// The two registered views: every broadcast as it stands, and the mean
/// speed per 4°×4° spatial chunk.
fn views() -> Vec<ViewDef> {
    vec![
        ViewDef::select(IDENTITY_VIEW, BROADCAST, Vec::new()),
        ViewDef::aggregate(
            AGG_VIEW,
            BROADCAST,
            Vec::new(),
            Arc::new(|c: &[i64], _: &[ScalarValue]| chunk_cell(c)),
            Arc::new(|_: &[i64], v: &[ScalarValue]| f64::from(speed(v))),
            AggKind::Avg,
        ),
    ]
}

fn runner_for<'w>(work: &'w dyn Workload, log: SharedLog) -> WorkloadRunner<'w> {
    let mut runner = WorkloadRunner::new(work, config(log));
    for def in views() {
        runner.register_view(def);
    }
    runner
}

fn new_log() -> (Arc<Mutex<MemLog>>, SharedLog) {
    let mem = Arc::new(Mutex::new(MemLog::new()));
    let shared: SharedLog = mem.clone();
    (mem, shared)
}

/// Total checkpoint bytes held by a log.
fn checkpoint_bytes(log: &MemLog) -> u64 {
    let mut log = log.clone();
    let seqs = log.checkpoint_seqs().expect("in-memory checkpoints list");
    seqs.into_iter().map(|s| log.read_checkpoint(s).expect("listed").len() as u64).sum()
}

pub fn round(ctx: &mut RoundCtx<'_>) -> RoundOut {
    let mut out = RoundOut::default();
    // The transparency twin runs first, so its runner is gone before the
    // measured one grows.
    let twin = ctx.checks.is_some().then(|| bare_twin(ctx.seed));
    let (setup, setup_s) = timed(|| {
        let work = Pregenerated::new(generator(ctx.seed));
        let (mem, shared) = new_log();
        (work, mem, shared)
    });
    let (work, mem, shared) = setup;
    let (mut runner, runner_s) = timed(|| runner_for(&work, shared));
    out.setup_s = vec![setup_s, runner_s];

    let mut reports = Vec::with_capacity(CYCLES);
    let mut wal_scratch = MemLog::new();
    for c in 0..CYCLES {
        let batches = work.cells(c).expect("materialized workload");
        let replay = ctx.trace.as_deref_mut().map(|t| {
            let views = Some(views());
            let built = trace::replay_arrays(
                t,
                &runner,
                work.inner(),
                c,
                batches,
                views,
                Some(&mut wal_scratch),
            );
            (built, PreCycle::take(&runner))
        });
        let (result, secs) = timed(|| runner.run_cycle(c));
        out.cycle_s.push(secs);
        out.attempted += 1;
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("ais-churn cycle {c} failed: {e}");
                out.failed += 1;
                out.abandon(PLANNED);
                return out;
            }
        };
        out.rows += batch_rows(batches);
        out.chunks += batch_chunks(batches, runner.catalog()) + work.derived(c).len() as u64;
        if let (Some(t), Some((built, pre))) = (ctx.trace.as_deref_mut(), replay) {
            t.cycle(secs);
            trace::census(t, runner.cluster());
            if (c + 1) % CHECKPOINT_EVERY == 0 {
                trace::checkpoint(t, &runner, &mut wal_scratch, (c + 1) as u64);
            }
            let shape = CycleShape {
                kind: PARTITIONER,
                workload: &work,
                added_nodes: report.added_nodes,
                node_capacity: NODE_CAPACITY,
                faults: true,
            };
            trace::replay_cluster(t, pre, &shape, &[&built, work.derived(c)]);
        }
        let (suite, secs) = timed(|| runner.run_suites_only(c));
        out.query_s.push(secs);
        out.tally_suite(&suite, &AIS_QUERIES);
        if let Some(t) = ctx.trace.as_deref_mut() {
            let ectx = ExecutionContext::new(runner.cluster(), runner.catalog());
            replay_suite(t, &ectx, work.inner(), c, &suite);
        }
        reports.push(with_suite(report, suite));
    }
    let run = RunReport { partitioner: PARTITIONER, cycles: reports, failures: Vec::new() };
    out.node_hours = run.node_hours();

    if let Some(t) = ctx.trace.as_deref_mut() {
        let log = mem.lock().expect("log mutex").clone();
        trace::durable_image(t, &log);
        trace::snapshot_size(t, runner.cluster());
        let rows: usize = runner
            .views()
            .views()
            .iter()
            .map(|v| v.output_rows().len() + v.group_rows().len())
            .sum();
        t.value("view.rows", rows as f64, 0.0);
        let data = runner.catalog().array(BROADCAST).expect("registered").data.as_ref();
        let data = data.expect("materialized");
        t.value("array.stored_bytes_per_row", data.byte_size() as f64, data.cell_count() as f64);
        t.end_round();
    }
    let live_probe = ctx.checks.is_some().then(|| probe(&runner));
    if let (Some(checks), Some(live_probe)) = (ctx.checks.as_deref_mut(), live_probe.as_ref()) {
        if let Some(twin) = twin.as_ref() {
            check_twin(checks, twin, &mem.lock().expect("log mutex"), live_probe);
        }
        check_state(checks, ctx.wrong_oracle, &work, &runner);
    }

    // Cold recovery from a copy of the run's durable image, with the
    // live runner gone, as after a restart.
    let image = mem.lock().expect("log mutex").clone();
    drop(runner);
    drop(mem);
    out.durable_bytes = image.len() + checkpoint_bytes(&image);
    let cold: SharedLog = Arc::new(Mutex::new(image));
    let (recovered, secs) = timed(|| WorkloadRunner::recover(&work, config(cold), views()));
    out.recover_s.push(secs);
    out.attempted += 1;
    match recovered {
        Ok(r) if r.start_cycle() == CYCLES => {
            if let (Some(checks), Some(live_probe)) = (ctx.checks.as_deref_mut(), live_probe) {
                check_probes(checks, &probe(&r), &live_probe, "recovered vs live runner");
            }
        }
        Ok(r) => {
            eprintln!("ais-churn recovery resumed at cycle {}, not {CYCLES}", r.start_cycle());
            out.failed += 1;
        }
        Err(e) => {
            eprintln!("ais-churn recovery failed: {e}");
            out.failed += 1;
        }
    }
    out
}

/// The AIS suite's region over the newest 30-day time chunk of `cycle`.
fn newest_time_chunk(cycle: usize) -> Region {
    const MINUTES_PER_TC: i64 = 43_200;
    const TCS_PER_CYCLE: i64 = 4;
    let c = cycle as i64;
    Region::new(
        vec![((c + 1) * TCS_PER_CYCLE - 1) * MINUTES_PER_TC, -180, 0],
        vec![(c + 1) * TCS_PER_CYCLE * MINUTES_PER_TC - 1, -66, 90],
    )
}

/// Replay the AIS suite query by query with the suite's own arguments.
pub fn replay_suite(
    t: &mut Trace,
    ctx: &ExecutionContext<'_>,
    w: &AisWorkload,
    cycle: usize,
    suite: &SuiteReport,
) {
    let region = AisWorkload::cycle_region(cycle);
    trace::suite_op(t, "query.subarray_s", suite, "spj/selection", || {
        ops::subarray(ctx, BROADCAST, &AisWorkload::houston_region(cycle), &["speed", "status"])
    });
    trace::suite_op(t, "query.distinct_sorted_s", suite, "spj/sort", || {
        ops::distinct_sorted(ctx, BROADCAST, Some(&region), "ship_id")
    });
    trace::suite_op(t, "query.lookup_join_s", suite, "spj/join", || {
        ops::lookup_join(ctx, BROADCAST, VESSEL, Some(&region), "ship_id", "ship_type")
    });
    let spec = ops::GroupSpec::coarsened(vec![1, 2], vec![8, 8]);
    trace::suite_op(t, "query.grid_aggregate_s", suite, "science/statistics", || {
        ops::grid_aggregate(ctx, BROADCAST, Some(&region), "speed", &spec, ops::AggFn::Count)
    });
    let queries = w.knn_queries(cycle, 96);
    trace::suite_op(t, "query.knn_s", suite, "science/modeling", || {
        ops::knn(ctx, BROADCAST, &queries, 10)
    });
    trace::suite_op(t, "query.trajectory_s", suite, "science/projection", || {
        ops::trajectory(ctx, BROADCAST, &newest_time_chunk(cycle), "speed", "course", 0.25)
    });
    t.value("query.chunks_visited", suite.chunks_visited() as f64, 0.0);
    t.value("query.chunks_pruned", suite.chunks_pruned() as f64, 0.0);
}

type Cells = BTreeMap<Vec<i64>, Vec<ScalarValue>>;

/// The broadcasts that survive the whole run, replayed from the
/// generated batches: each cycle retracts, then inserts.
fn survivors(work: &Pregenerated<AisWorkload>) -> Cells {
    let mut live = Cells::new();
    for c in 0..CYCLES {
        for b in work.cells(c).expect("materialized workload") {
            assert_eq!(b.array, BROADCAST);
            for cell in b.retractions_flat().chunks_exact(3) {
                live.remove(cell);
            }
            for (coords, values) in b.cells() {
                live.insert(coords, values);
            }
        }
    }
    live
}

/// What a run through the bare generator logged and ended with.
struct Twin {
    log: Option<MemLog>,
    probe: Probe,
}

fn bare_twin(seed: u64) -> Twin {
    let bare = generator(seed);
    let (mem, log) = new_log();
    let mut twin = runner_for(&bare, log);
    let ok = (0..CYCLES).all(|c| twin.run_cycle(c).is_ok());
    let probe = probe(&twin);
    drop(twin);
    let log = ok.then(|| mem.lock().expect("log mutex").clone());
    Twin { log, probe }
}

/// The pre-generated wrapper is transparent: the bare generator writes
/// the same log and reaches the same state.
fn check_twin(checks: &mut Checks, twin: &Twin, log: &MemLog, live_probe: &Probe) {
    let Some(bare) = twin.log.as_ref() else {
        return checks.check(false, || "bare-generator twin run failed".to_string());
    };
    let genesis = |log: &MemLog| {
        let mut reader = durability::RecordReader::new(log.bytes());
        reader.next_record().ok().flatten().map(<[u8]>::to_vec)
    };
    checks.check(genesis(log).is_some() && genesis(log) == genesis(bare), || {
        "wrapper and bare generator log different genesis records".to_string()
    });
    checks.check(log.bytes() == bare.bytes(), || {
        "wrapper and bare generator write different log images".to_string()
    });
    let ckpts = |log: &MemLog| {
        let mut log = log.clone();
        let seqs = log.checkpoint_seqs().expect("in-memory checkpoints list");
        seqs.into_iter().map(|s| log.read_checkpoint(s).expect("listed")).collect::<Vec<_>>()
    };
    checks.check(ckpts(log) == ckpts(bare), || {
        "wrapper and bare generator write different checkpoints".to_string()
    });
    check_probes(checks, &twin.probe, live_probe, "bare-generator twin vs wrapper run");
}

/// The live runner's views, answers and stores against oracles computed
/// from the generated batches.
fn check_state(
    checks: &mut Checks,
    wrong_oracle: bool,
    work: &Pregenerated<AisWorkload>,
    runner: &WorkloadRunner<'_>,
) {
    let mut live = survivors(work);
    if wrong_oracle {
        let first = live.values_mut().next().expect("some broadcast survives");
        first[0] = ScalarValue::Int32(speed(first) + 1);
    }

    // Identity view: exactly the survivors, every weight 1.
    let identity = runner.views().view(IDENTITY_VIEW).expect("registered view");
    let mut rows = identity.output_rows();
    rows.sort_by(|a, b| a.0 .0.cmp(&b.0 .0));
    checks.check(rows.iter().all(|(_, w)| *w == 1), || "identity view weight != 1".to_string());
    let same = rows.len() == live.len()
        && rows.iter().zip(&live).all(|(((c, v), _), (lc, lv))| c == lc && v == lv);
    checks.check(same, || {
        format!("identity view ({} rows) differs from the {} survivors", rows.len(), live.len())
    });

    // Aggregate view: a recompute over the survivors.
    let mut groups: BTreeMap<Vec<i64>, (i64, u64)> = BTreeMap::new();
    for (c, v) in &live {
        let g = groups.entry(chunk_cell(c)).or_default();
        g.0 += i64::from(speed(v));
        g.1 += 1;
    }
    let got = runner.views().view(AGG_VIEW).expect("registered view").group_rows();
    let same = got.len() == groups.len()
        && got.iter().zip(&groups).all(|((k, row), (gk, (sum, n)))| {
            k == gk && row.cells == *n && close(row.value, *sum as f64 / *n as f64)
        });
    checks.check(same, || "aggregate view differs from its recompute".to_string());

    // Suite answers on the final state against the same filters run over
    // the survivors.
    let last = CYCLES - 1;
    let ectx = ExecutionContext::new(runner.cluster(), runner.catalog());
    let houston = AisWorkload::houston_region(last);
    let region = AisWorkload::cycle_region(last);
    match ops::subarray(&ectx, BROADCAST, &houston, &["speed", "status"]) {
        Ok((cells, _)) => {
            let mut got = cells.cells;
            got.sort_by(|a, b| a.0.cmp(&b.0));
            let want: Vec<(Vec<i64>, Vec<ScalarValue>)> = live
                .iter()
                .filter(|(c, _)| houston.contains_cell(c))
                .map(|(c, v)| (c.clone(), vec![v[0].clone(), v[4].clone()]))
                .collect();
            checks.check(!want.is_empty() && got == want, || {
                format!("spj/selection: {} cells, oracle {}", got.len(), want.len())
            });
        }
        Err(e) => checks.check(false, || format!("spj/selection failed: {e}")),
    }
    match ops::distinct_sorted(&ectx, BROADCAST, Some(&region), "ship_id") {
        Ok((ids, _)) => {
            let want: Vec<i64> = live
                .iter()
                .filter(|(c, _)| region.contains_cell(c))
                .map(|(_, v)| match v[6] {
                    ScalarValue::Int64(id) => id,
                    ref other => panic!("ship_id is int64, got {other:?}"),
                })
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            checks.check(!want.is_empty() && ids == want, || {
                format!("spj/sort: {} ids, oracle {}", ids.len(), want.len())
            });
        }
        Err(e) => checks.check(false, || format!("spj/sort failed: {e}")),
    }
    let spec = ops::GroupSpec::coarsened(vec![1, 2], vec![8, 8]);
    match ops::grid_aggregate(&ectx, BROADCAST, Some(&region), "speed", &spec, ops::AggFn::Count) {
        Ok((rows, _)) => {
            let mut want: BTreeMap<Vec<i64>, u64> = BTreeMap::new();
            for c in live.keys().filter(|c| region.contains_cell(c)) {
                *want.entry(vec![c[1].div_euclid(8), c[2].div_euclid(8)]).or_default() += 1;
            }
            let got: BTreeMap<Vec<i64>, u64> = rows
                .iter()
                .filter(|r| r.value == r.cells as f64)
                .map(|r| (r.key.clone(), r.cells))
                .collect();
            checks.check(got.len() == rows.len() && got == want, || {
                format!("science/statistics: {} groups, oracle {}", rows.len(), want.len())
            });
        }
        Err(e) => checks.check(false, || format!("science/statistics failed: {e}")),
    }

    // After the revive: full replica strength, and the node stores hold
    // exactly the survivors.
    checks.check(runner.cluster().replica_census().is_full_strength(), || {
        "replica census is not at full strength after the revive".to_string()
    });
    let mut stored = 0u64;
    let mut missing = 0usize;
    for node in runner.cluster().nodes() {
        for desc in node.descriptors().filter(|d| d.key.array == BROADCAST) {
            match node.payload(&desc.key) {
                Some(chunk) => stored += chunk.cell_count(),
                None => missing += 1,
            }
        }
    }
    checks.check(missing == 0 && stored == live.len() as u64, || {
        format!(
            "node stores hold {stored} live rows ({missing} payloads missing), oracle {}",
            live.len()
        )
    });
}
