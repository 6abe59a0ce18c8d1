//! The traced run: per-layer timings taken at each crate's public entry
//! points, on the cycle's own inputs.
//!
//! `WorkloadRunner::run_cycle` is one call, so the traced run does not
//! time inside it. Around each cycle it replays the calls the cycle makes
//! into each layer on copies of the pre-cycle state (a cloned cluster, a
//! partitioner rebuilt from the live one's table snapshot, view states
//! re-imported from their codec) and times those. The replays never run
//! inside the end-to-end timings; a run with `--trace 1` reports only the
//! per-layer metrics.

use crate::common::{batch_rows, rebuild_partitioner, THREADS};
use crate::util::{mb, Metric};
use array_model::{Array, ChunkDescriptor, DeltaSet, StringEncoding};
use cluster_sim::{BackoffPolicy, Cluster, NodeId, RebalancePlan};
use durability::{frame_record, ByteReader, ByteWriter, LogStore, MemLog, RecordReader};
use elastic_core::{batch_prefix_bytes, route_batch, PartitionerKind, RouteEpoch};
use query_engine::view::{ViewDef, ViewRegistry};
use query_engine::QueryStats;
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::{build_cell_array_encoded, CellBatch, SuiteReport, Workload, WorkloadRunner};

#[derive(Default, Clone, Copy)]
struct Acc {
    /// Work done: rows, chunks, MB or a count, per the metric.
    work: f64,
    /// Host seconds spent doing it.
    secs: f64,
    /// Denominator of a ratio metric.
    den: f64,
}

/// How a metric is derived from its accumulator.
enum Kind {
    /// Work per host second.
    Rate,
    /// Host seconds per round.
    Secs,
    /// Work per round.
    PerRound,
    /// Work per unit of the denominator.
    Ratio,
}

/// Every per-layer metric: name, unit, derivation.
const LAYERS: &[(&str, &str, Kind)] = &[
    ("workloads.gen_rows_per_s", "rows/s", Kind::Rate),
    ("workloads.gen_chunks_per_s", "chunks/s", Kind::Rate),
    ("runner.uncovered_s", "s", Kind::Secs),
    ("array.build_rows_per_s", "rows/s", Kind::Rate),
    ("array.retract_rows_per_s", "rows/s", Kind::Rate),
    ("array.codec_mb_per_s", "MB/s", Kind::Rate),
    ("array.stored_bytes_per_row", "B/row", Kind::Ratio),
    ("core.route_chunks_per_s", "chunks/s", Kind::Rate),
    ("core.scale_out_s", "s", Kind::Secs),
    ("cluster.place_chunks_per_s", "chunks/s", Kind::Rate),
    ("cluster.rebalance_s", "s", Kind::Secs),
    ("cluster.repair_s", "s", Kind::Secs),
    ("cluster.census_s", "s", Kind::Secs),
    ("cluster.snapshot_mb", "MB", Kind::PerRound),
    ("query.subarray_s", "s", Kind::Secs),
    ("query.distinct_sorted_s", "s", Kind::Secs),
    ("query.lookup_join_s", "s", Kind::Secs),
    ("query.grid_aggregate_s", "s", Kind::Secs),
    ("query.knn_s", "s", Kind::Secs),
    ("query.trajectory_s", "s", Kind::Secs),
    ("query.quantile_s", "s", Kind::Secs),
    ("query.positional_join_s", "s", Kind::Secs),
    ("query.rolling_aggregate_s", "s", Kind::Secs),
    ("query.kmeans_s", "s", Kind::Secs),
    ("query.window_aggregate_s", "s", Kind::Secs),
    ("query.chunks_visited", "count", Kind::PerRound),
    ("query.chunks_pruned", "count", Kind::PerRound),
    ("view.apply_rows_per_s", "rows/s", Kind::Rate),
    ("view.rows", "count", Kind::PerRound),
    ("durability.append_mb_per_s", "MB/s", Kind::Rate),
    ("durability.checkpoint_s", "s", Kind::Secs),
    ("durability.scan_s", "s", Kind::Secs),
    ("durability.log_mb", "MB", Kind::PerRound),
    ("durability.checkpoint_mb", "MB", Kind::PerRound),
];

/// Per-layer accumulators over every traced round of one run.
#[derive(Default)]
pub struct Trace {
    /// Replayed calls whose outcome differed from the cycle's own (a
    /// replay that does not reproduce the cycle times the wrong work).
    pub failures: Vec<String>,
    rounds: u32,
    acc: BTreeMap<&'static str, Acc>,
    /// Host seconds inside `run_cycle`, and the part the replayed layer
    /// calls account for.
    cycle_secs: f64,
    covered_secs: f64,
}

impl Trace {
    /// Time `f` as `work` units of metric `key`.
    pub fn time<T>(&mut self, key: &'static str, work: f64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(key, work, t.elapsed().as_secs_f64());
        out
    }

    /// Like [`Trace::time`], for a call `run_cycle` itself makes on this
    /// workload: its time counts toward the covered part of the cycle.
    pub fn time_covered<T>(&mut self, key: &'static str, work: f64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.add(key, work, secs);
        self.covered_secs += secs;
        out
    }

    fn add(&mut self, key: &'static str, work: f64, secs: f64) {
        let a = self.acc.entry(key).or_default();
        a.work += work;
        a.secs += secs;
    }

    /// Add to a per-round value or a ratio's numerator and denominator.
    pub fn value(&mut self, key: &'static str, work: f64, den: f64) {
        let a = self.acc.entry(key).or_default();
        a.work += work;
        a.den += den;
    }

    /// Count `secs` already timed toward the covered part of the cycle.
    fn covered(&mut self, secs: f64) {
        self.covered_secs += secs;
    }

    pub fn cycle(&mut self, secs: f64) {
        self.cycle_secs += secs;
    }

    pub fn end_round(&mut self) {
        self.rounds += 1;
    }

    /// Every per-layer metric. A layer that did no work on this workload
    /// reads 0.
    pub fn metrics(&self) -> Vec<Metric> {
        let rounds = f64::from(self.rounds.max(1));
        let mut out = Vec::with_capacity(LAYERS.len());
        for (name, unit, kind) in LAYERS {
            let value = if *name == "runner.uncovered_s" {
                (self.cycle_secs - self.covered_secs) / rounds
            } else {
                let a = self.acc.get(name).copied().unwrap_or_default();
                match kind {
                    Kind::Rate if a.secs > 0.0 => a.work / a.secs,
                    Kind::Rate => 0.0,
                    Kind::Secs => a.secs / rounds,
                    Kind::PerRound => a.work / rounds,
                    Kind::Ratio if a.den > 0.0 => a.work / a.den,
                    Kind::Ratio => 0.0,
                }
            };
            out.push(Metric::new(name, value, unit));
        }
        out
    }
}

/// Replay the cycle's array, view and log calls on copies and time them.
/// Returns the descriptors of the chunks the cycle builds.
/// `views` are the runner's view definitions and `wal` a scratch log,
/// when the workload has them.
pub fn replay_arrays(
    t: &mut Trace,
    runner: &WorkloadRunner<'_>,
    generator: &dyn Workload,
    c: usize,
    batches: &[CellBatch],
    views: Option<Vec<ViewDef>>,
    wal: Option<&mut MemLog>,
) -> Vec<ChunkDescriptor> {
    t.time("workloads.gen_rows_per_s", batch_rows(batches) as f64, || generator.cell_batch(c));
    if let Some(wal) = wal {
        // Write-ahead append of the cycle's insert event, encoded and
        // framed as the runner does it (3 is the log's insert-cells tag).
        let start = Instant::now();
        let mut w = ByteWriter::new();
        w.put_u8(3);
        w.put_usize(batches.len());
        for b in batches {
            b.encode_into(&mut w);
        }
        let framed = frame_record(&w.into_bytes());
        wal.append(&framed).expect("in-memory append");
        let secs = start.elapsed().as_secs_f64();
        t.add("durability.append_mb_per_s", mb(framed.len() as u64), secs);
        t.covered(secs);
    }

    let mut descs = Vec::new();
    for b in batches {
        let stored = runner.catalog().array(b.array).expect("registered");
        if let Some(data) = stored.data.as_ref() {
            // A private copy through the codec, so the retraction below
            // does not pay to unshare chunks the live state still holds.
            let mut w = ByteWriter::new();
            t.time("array.codec_mb_per_s", 0.0, || data.encode_into(&mut w));
            let bytes = w.into_bytes();
            let mut copy = t.time("array.codec_mb_per_s", 2.0 * mb(bytes.len() as u64), || {
                Array::decode_from(&mut ByteReader::new(&bytes)).expect("the live array decodes")
            });
            let flat = b.retractions_flat();
            if !flat.is_empty() {
                let n = b.retraction_count() as f64;
                t.time_covered("array.retract_rows_per_s", n, || {
                    copy.delete_cells(flat).expect("retractions fit the schema")
                });
            }
        }
        let rows = b.rows().clone();
        let built = t.time_covered("array.build_rows_per_s", b.len() as f64, || {
            build_cell_array_encoded(
                b.array,
                stored.schema.clone(),
                rows,
                THREADS,
                StringEncoding::default(),
            )
            .expect("generated rows build")
        });
        if let Some(defs) = views.clone().filter(|_| runner.views().reads(b.array)) {
            let mut w = ByteWriter::new();
            runner.views().export_states(&mut w);
            let bytes = w.into_bytes();
            let mut copy = ViewRegistry::import_states(defs, &mut ByteReader::new(&bytes))
                .expect("live view states import");
            t.time_covered("view.apply_rows_per_s", built.cell_count() as f64, || {
                let delta = DeltaSet::from_live_cells(&built);
                copy.apply(b.array, &delta)
            });
        }
        descs.extend(built.descriptors());
    }
    descs
}

/// Time one suite query replayed with the suite's own arguments, and
/// check it costs exactly what the suite recorded for `name`.
pub fn suite_op<T>(
    trace: &mut Trace,
    key: &'static str,
    suite: &SuiteReport,
    name: &str,
    f: impl FnOnce() -> query_engine::Result<(T, QueryStats)>,
) {
    let got = trace.time(key, 0.0, f);
    let same = match (got, suite.query(name)) {
        (Ok((_, stats)), Some(want)) => &stats == want,
        (Err(_), None) => true,
        _ => false,
    };
    if !same {
        trace.failures.push(format!("replayed {name} does not match the suite's run"));
    }
}

/// The pre-cycle state the cluster and partitioner replays start from.
pub struct PreCycle {
    cluster: Cluster,
    table: Vec<u8>,
}

impl PreCycle {
    pub fn take(runner: &WorkloadRunner<'_>) -> Self {
        PreCycle { cluster: runner.cluster().clone(), table: runner.partitioner().table_snapshot() }
    }
}

/// What the cycle did to the roster, read from its report.
pub struct CycleShape<'a> {
    pub kind: PartitionerKind,
    pub workload: &'a dyn Workload,
    pub added_nodes: usize,
    pub node_capacity: u64,
    /// Whether the cycle's own run injects faults, so its repair path is
    /// part of what `run_cycle` does.
    pub faults: bool,
}

/// Replay the cycle's scale-out, rebalance, routing, placement and a
/// repair on copies of the pre-cycle cluster and partitioner. `batches`
/// are placed in order, like the runner places the insert batch and
/// then the derived batch.
pub fn replay_cluster(
    trace: &mut Trace,
    pre: PreCycle,
    shape: &CycleShape<'_>,
    batches: &[&[ChunkDescriptor]],
) {
    let PreCycle { mut cluster, table } = pre;
    let mut part = rebuild_partitioner(shape.kind, &cluster, shape.workload, &table)
        .expect("a live partitioner's table restores into its twin");

    if shape.added_nodes > 0 {
        let new = cluster.add_nodes(shape.added_nodes, shape.node_capacity);
        let plan = trace.time_covered("core.scale_out_s", 0.0, || part.scale_out(&cluster, &new));
        let plan = serving_moves(&cluster, plan);
        trace.time_covered("cluster.rebalance_s", 0.0, || {
            cluster.apply_rebalance(&plan).expect("sanitized rebalance applies")
        });
    }
    for batch in batches {
        if batch.is_empty() {
            continue;
        }
        let n = batch.len() as f64;
        let routes = trace.time_covered("core.route_chunks_per_s", n, || {
            let prefix = batch_prefix_bytes(batch);
            let epoch = RouteEpoch::for_batch(&cluster, &prefix);
            let mut routes = route_batch(part.as_ref(), batch, &epoch, THREADS);
            if cluster.has_faulted_nodes() {
                for (desc, route) in batch.iter().zip(routes.iter_mut()) {
                    if !cluster.node(*route).is_ok_and(|x| x.state().accepts_data()) {
                        *route = cluster.divert_route(&desc.key).expect("a node accepts data");
                    }
                }
            }
            routes
        });
        trace.time_covered("cluster.place_chunks_per_s", n, || {
            cluster.place_batch(batch, &routes, THREADS).expect("fresh chunks place")
        });
        trace.time_covered("core.route_chunks_per_s", 0.0, || part.commit(batch, &routes));
    }
    // Repair: crash the most loaded serving node of the copy and rebuild
    // what the surviving copies allow (at k = 1 nothing can be rebuilt;
    // the call sequence still runs).
    let victim = cluster
        .nodes()
        .filter(|n| n.state().serves_reads())
        .max_by_key(|n| (n.used_bytes(), std::cmp::Reverse(n.id)))
        .map(|n| n.id);
    let serving = cluster.nodes().filter(|n| n.state().serves_reads()).count();
    if let (Some(victim), true) = (victim, serving > 1) {
        let t = Instant::now();
        cluster.crash_node(victim).expect("a serving node crashes");
        let plan = cluster.plan_recovery();
        let _ = cluster.execute_recovery(&plan, &BackoffPolicy::default());
        let secs = t.elapsed().as_secs_f64();
        trace.add("cluster.repair_s", 0.0, secs);
        if shape.faults {
            trace.covered_secs += secs;
        }
    }
}

/// Time the replica census every cycle ends with, on the state the cycle
/// left.
pub fn census(trace: &mut Trace, cluster: &Cluster) {
    trace.time_covered("cluster.census_s", 0.0, || cluster.replica_census());
}

/// Time a checkpoint of the state the cycle left, built as the runner
/// builds one: catalog, cluster, partitioner table and view states in
/// one framed record, stored in a scratch log.
pub fn checkpoint(trace: &mut Trace, runner: &WorkloadRunner<'_>, scratch: &mut MemLog, seq: u64) {
    trace.time_covered("durability.checkpoint_s", 0.0, || {
        let mut w = ByteWriter::new();
        runner.catalog().encode_into(&mut w);
        runner.cluster().snapshot_into(&mut w);
        w.put_bytes(&runner.partitioner().table_snapshot());
        runner.views().export_states(&mut w);
        scratch.write_checkpoint(seq, &frame_record(&w.into_bytes())).expect("in-memory write")
    });
}

/// Drop rebalance moves a fault-blind partitioner aimed at nodes that no
/// longer serve, as the runner does before it applies a plan.
fn serving_moves(cluster: &Cluster, plan: RebalancePlan) -> RebalancePlan {
    if !cluster.has_faulted_nodes() {
        return plan;
    }
    let ok = |n: NodeId, read: bool| {
        cluster.node(n).is_ok_and(|x| {
            if read {
                x.state().serves_reads()
            } else {
                x.state().accepts_data()
            }
        })
    };
    let mut out = RebalancePlan::empty();
    for m in plan.moves {
        if cluster.locate(&m.key) == Some(m.from) && ok(m.from, true) && ok(m.to, false) {
            out.push(m.key, m.from, m.to, m.bytes);
        }
    }
    out
}

/// End-of-round sizes of the cluster snapshot.
pub fn snapshot_size(trace: &mut Trace, cluster: &Cluster) {
    let mut w = durability::ByteWriter::new();
    cluster.snapshot_into(&mut w);
    trace.value("cluster.snapshot_mb", mb(w.len() as u64), 0.0);
}

/// End-of-round durability figures: the log scan and the image sizes.
pub fn durable_image(trace: &mut Trace, log: &MemLog) {
    let records = trace.time("durability.scan_s", 0.0, || {
        let mut reader = RecordReader::new(log.bytes());
        let mut n = 0u64;
        while reader.next_record().expect("the live log scans clean").is_some() {
            n += 1;
        }
        n
    });
    assert!(records > 0, "a durable run logs records");
    let mut log = log.clone();
    let ckpt: u64 = durability::LogStore::checkpoint_seqs(&mut log)
        .expect("in-memory checkpoints list")
        .into_iter()
        .map(|s| durability::LogStore::read_checkpoint(&mut log, s).expect("listed").len() as u64)
        .sum();
    trace.value("durability.log_mb", mb(log.len()), 0.0);
    trace.value("durability.checkpoint_mb", mb(ckpt), 0.0);
}
