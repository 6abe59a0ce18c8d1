//! `modis-ttl`: the read-heavy mix.
//!
//! Materialized MODIS with TTL expiry, k = 1, no views and no log, with
//! the MODIS query suite after every cycle. Query operators over the
//! rolling-window archive dominate it; whole-day expiry is steady and
//! cheap. Without a log, its cold start restores the end state from the
//! catalog, cluster and partitioner snapshot codecs.

use crate::common::{
    batch_chunks, batch_rows, check_probes, probe, snapshot_cold_start, with_suite, RoundCtx,
    RoundOut, COLD_START_TRIES, MODIS_QUERIES, THREADS,
};
use crate::pregen::Pregenerated;
use crate::trace::{self, CycleShape, PreCycle, Trace};
use crate::util::{close, timed, Checks};
use array_model::{ArrayId, Region, ScalarValue};
use elastic_core::PartitionerKind;
use query_engine::{ops, ExecutionContext};
use std::collections::{BTreeMap, HashMap};
use workloads::modis::{BAND1, BAND2};
use workloads::{ModisWorkload, RunReport, RunnerConfig, SuiteReport, WorkloadRunner};

const DAYS: usize = 10;
/// Band-1 pixels generated per day (band 2 stores every other one).
const CELLS_PER_CYCLE: u64 = 12_000;
const TTL_DAYS: usize = 4;
const INITIAL_NODES: usize = 2;
const NODE_CAPACITY: u64 = 1_000_000;
const PARTITIONER: PartitionerKind = PartitionerKind::HilbertCurve;
const MINUTES_PER_DAY: i64 = 1_440;
/// The suite's window radius and its NDVI combiner.
const WINDOW_RADIUS: i64 = 2;
fn ndvi(b1: f64, b2: f64) -> f64 {
    (b2 - b1) / (b2 + b1 + 1e-9)
}

/// Operations one round attempts: each cycle, each expected query of
/// each suite run, and each try of the cold start.
const PLANNED: u64 = (DAYS * (1 + MODIS_QUERIES.len()) + COLD_START_TRIES) as u64;

fn generator(seed: u64) -> ModisWorkload {
    ModisWorkload {
        days: DAYS,
        scale: 1.0,
        seed,
        cells_per_cycle: CELLS_PER_CYCLE,
        ttl_days: TTL_DAYS,
    }
}

fn config() -> RunnerConfig {
    RunnerConfig {
        node_capacity: NODE_CAPACITY,
        initial_nodes: INITIAL_NODES,
        partitioner: PARTITIONER,
        run_queries: false,
        ingest_threads: THREADS,
        ..RunnerConfig::default()
    }
}

pub fn round(ctx: &mut RoundCtx<'_>) -> RoundOut {
    let mut out = RoundOut::default();
    let twin = ctx.checks.is_some().then(|| {
        let bare = generator(ctx.seed);
        let mut twin = WorkloadRunner::new(&bare, config());
        let ok = (0..DAYS).all(|c| twin.run_cycle(c).is_ok());
        ok.then(|| probe(&twin))
    });
    let (work, gen_s) = timed(|| Pregenerated::new(generator(ctx.seed)));
    let (mut runner, runner_s) = timed(|| WorkloadRunner::new(&work, config()));
    out.setup_s = vec![gen_s, runner_s];

    let mut reports = Vec::with_capacity(DAYS);
    for c in 0..DAYS {
        let batches = work.cells(c).expect("materialized workload");
        let replay = ctx.trace.as_deref_mut().map(|t| {
            let built = trace::replay_arrays(t, &runner, work.inner(), c, batches, None, None);
            (built, PreCycle::take(&runner))
        });
        let (result, secs) = timed(|| runner.run_cycle(c));
        out.cycle_s.push(secs);
        out.attempted += 1;
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("modis-ttl cycle {c} failed: {e}");
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
            let shape = CycleShape {
                kind: PARTITIONER,
                workload: &work,
                added_nodes: report.added_nodes,
                node_capacity: NODE_CAPACITY,
                faults: false,
            };
            trace::replay_cluster(t, pre, &shape, &[&built, work.derived(c)]);
        }
        let (suite, secs) = timed(|| runner.run_suites_only(c));
        out.query_s.push(secs);
        out.tally_suite(&suite, &MODIS_QUERIES);
        if let Some(t) = ctx.trace.as_deref_mut() {
            let ectx = ExecutionContext::new(runner.cluster(), runner.catalog());
            replay_suite(t, &ectx, c, &suite);
        }
        reports.push(with_suite(report, suite));
    }
    let run = RunReport { partitioner: PARTITIONER, cycles: reports, failures: Vec::new() };
    out.node_hours = run.node_hours();
    out.durable_bytes = snapshot_cold_start(&mut out, &runner, &work, PARTITIONER);

    if let Some(t) = ctx.trace.as_deref_mut() {
        trace::snapshot_size(t, runner.cluster());
        for band in [BAND1, BAND2] {
            let data = runner.catalog().array(band).expect("registered").data.as_ref();
            let data = data.expect("materialized");
            t.value(
                "array.stored_bytes_per_row",
                data.byte_size() as f64,
                data.cell_count() as f64,
            );
        }
        t.end_round();
    }
    if let Some(checks) = ctx.checks.as_deref_mut() {
        match twin.flatten() {
            Some(twin) => check_probes(checks, &twin, &probe(&runner), "bare-generator twin"),
            None => checks.check(false, || "bare-generator twin run failed".to_string()),
        }
        check_state(checks, ctx.wrong_oracle, &work, &runner);
    }
    out
}

fn sixteenth(day: i64) -> Region {
    Region::new(
        vec![(day - 3).max(0) * MINUTES_PER_DAY, -180, -90],
        vec![(day + 1) * MINUTES_PER_DAY - 1, -91, -46],
    )
}

/// Replay the MODIS suite query by query with the suite's own arguments.
pub fn replay_suite(t: &mut Trace, ctx: &ExecutionContext<'_>, cycle: usize, suite: &SuiteReport) {
    let day = cycle as i64;
    trace::suite_op(t, "query.subarray_s", suite, "spj/selection", || {
        ops::subarray(ctx, BAND1, &sixteenth(day), &["radiance"])
    });
    let week = ModisWorkload::day_region((day - 6).max(0), day);
    trace::suite_op(t, "query.quantile_s", suite, "spj/sort", || {
        ops::quantile(ctx, BAND1, Some(&week), "radiance", 0.5, 0.01)
    });
    let newest = ModisWorkload::day_region(day, day);
    trace::suite_op(t, "query.positional_join_s", suite, "spj/join", || {
        ops::positional_join(ctx, BAND1, BAND2, &newest, "radiance", "radiance", ndvi)
    });
    let week_start = (day - 6).max(0);
    let spec = ops::GroupSpec::by_dims(vec![1, 2]);
    for (name, lat_lo, lat_hi) in
        [("science/statistics-north", 66, 90), ("science/statistics-south", -90, -66)]
    {
        let cap = Region::new(
            vec![week_start * MINUTES_PER_DAY, -180, lat_lo],
            vec![(day + 1) * MINUTES_PER_DAY - 1, 180, lat_hi],
        );
        trace::suite_op(t, "query.rolling_aggregate_s", suite, name, || {
            ops::rolling_aggregate(ctx, BAND1, Some(&cap), "si_value", &spec, ops::AggFn::Avg, 0)
        });
    }
    let amazon = Region::new(
        vec![day * MINUTES_PER_DAY, -75, -15],
        vec![(day + 1) * MINUTES_PER_DAY - 1, -50, 5],
    );
    trace::suite_op(t, "query.kmeans_s", suite, "science/modeling", || {
        ops::kmeans(ctx, BAND1, &amazon, "reflectance", 5, 12)
    });
    trace::suite_op(t, "query.window_aggregate_s", suite, "science/projection", || {
        ops::window_aggregate(ctx, BAND1, &newest, "reflectance", WINDOW_RADIUS)
    });
    t.value("query.chunks_visited", suite.chunks_visited() as f64, 0.0);
    t.value("query.chunks_pruned", suite.chunks_pruned() as f64, 0.0);
}

type Cells = BTreeMap<Vec<i64>, Vec<ScalarValue>>;

fn f64_of(v: &ScalarValue) -> f64 {
    match v {
        ScalarValue::Double(x) => *x,
        other => panic!("expected a double, got {other:?}"),
    }
}

/// The live cells of one band, read from the node stores.
fn stored_cells(runner: &WorkloadRunner<'_>, band: ArrayId) -> Cells {
    let mut out = Cells::new();
    for node in runner.cluster().nodes() {
        for desc in node.descriptors().filter(|d| d.key.array == band) {
            let chunk = node.payload(&desc.key).expect("placed chunks carry payloads");
            for (cell, row) in chunk.iter_cells() {
                out.insert(cell.to_vec(), chunk.row_values(row).expect("live row"));
            }
        }
    }
    out
}

/// The runner's stores and answers against oracles computed from the
/// generated batches.
fn check_state(
    checks: &mut Checks,
    wrong_oracle: bool,
    work: &Pregenerated<ModisWorkload>,
    runner: &WorkloadRunner<'_>,
) {
    // Exactly the last TTL_DAYS days of generated pixels stay live.
    let mut want: BTreeMap<ArrayId, Cells> = BTreeMap::new();
    for c in DAYS - TTL_DAYS..DAYS {
        for b in work.cells(c).expect("materialized workload") {
            want.entry(b.array).or_default().extend(b.cells());
        }
    }
    if wrong_oracle {
        let band1 = want.get_mut(&BAND1).expect("band 1 generated");
        let first = band1.values_mut().next().expect("some pixel");
        first[1] = ScalarValue::Double(f64_of(&first[1]) + 1.0);
    }
    for band in [BAND1, BAND2] {
        let got = stored_cells(runner, band);
        let want = &want[&band];
        checks.check(!want.is_empty() && &got == want, || {
            format!(
                "{band}: the stores' {} live cells are not the last {TTL_DAYS} days' {} pixels",
                got.len(),
                want.len()
            )
        });
    }
    let band1 = &want[&BAND1];
    let band2 = &want[&BAND2];

    let day = (DAYS - 1) as i64;
    let ectx = ExecutionContext::new(runner.cluster(), runner.catalog());
    let region = sixteenth(day);
    match ops::subarray(&ectx, BAND1, &region, &["radiance"]) {
        Ok((cells, _)) => {
            let mut got = cells.cells;
            got.sort_by(|a, b| a.0.cmp(&b.0));
            let want: Vec<(Vec<i64>, Vec<ScalarValue>)> = band1
                .iter()
                .filter(|(c, _)| region.contains_cell(c))
                .map(|(c, v)| (c.clone(), vec![v[1].clone()]))
                .collect();
            checks.check(!want.is_empty() && got == want, || {
                format!("spj/selection: {} cells, oracle {}", got.len(), want.len())
            });
        }
        Err(e) => checks.check(false, || format!("spj/selection failed: {e}")),
    }

    let newest = ModisWorkload::day_region(day, day);
    match ops::positional_join(&ectx, BAND1, BAND2, &newest, "radiance", "radiance", ndvi) {
        Ok((joined, _)) => {
            let mut matches = 0u64;
            let mut sum = 0.0;
            for (c, v2) in band2.iter().filter(|(c, _)| newest.contains_cell(c)) {
                let v1 = &band1[c];
                matches += 1;
                sum += ndvi(f64_of(&v1[1]), f64_of(&v2[1]));
            }
            checks.check(matches > 0 && joined.matches == matches, || {
                format!("spj/join: {} matches, band-2 survivors {matches}", joined.matches)
            });
            checks.check(close(joined.combined_sum, sum), || {
                format!("spj/join: NDVI sum {} vs oracle {sum}", joined.combined_sum)
            });
        }
        Err(e) => checks.check(false, || format!("spj/join failed: {e}")),
    }

    match ops::window_aggregate(&ectx, BAND1, &newest, "reflectance", WINDOW_RADIUS) {
        Ok((window, _)) => {
            let (mean, outputs) = window_oracle(band1, &newest, WINDOW_RADIUS);
            checks.check(outputs > 0 && window.outputs == outputs, || {
                format!("science/projection: {} outputs, oracle {outputs}", window.outputs)
            });
            checks.check(window.mean.is_some_and(|m| close(m, mean)), || {
                format!("science/projection: mean {:?}, oracle {mean}", window.mean)
            });
        }
        Err(e) => checks.check(false, || format!("science/projection failed: {e}")),
    }
}

/// Brute-force windowed average: for every live cell in `region`, the
/// mean reflectance of the stored cells within L∞ distance `radius`, then
/// the mean over those cells. Returns (mean, output cells).
fn window_oracle(band1: &Cells, region: &Region, radius: i64) -> (f64, u64) {
    let points: HashMap<&[i64], f64> =
        band1.iter().map(|(c, v)| (c.as_slice(), f64_of(&v[2]))).collect();
    let mut total = 0.0;
    let mut outputs = 0u64;
    for cell in band1.keys().filter(|c| region.contains_cell(c)) {
        let mut sum = 0.0;
        let mut n = 0u64;
        let mut probe = cell.clone();
        for dt in -radius..=radius {
            probe[0] = cell[0] + dt;
            for dx in -radius..=radius {
                probe[1] = cell[1] + dx;
                for dy in -radius..=radius {
                    probe[2] = cell[2] + dy;
                    if let Some(v) = points.get(probe.as_slice()) {
                        sum += v;
                        n += 1;
                    }
                }
            }
        }
        total += sum / n as f64;
        outputs += 1;
    }
    (total / outputs.max(1) as f64, outputs)
}
