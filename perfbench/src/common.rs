//! What every workload's round shares: the round's figures, operation
//! accounting, state probes and the snapshot restore used as the cold
//! start of workloads that run without a log.

use crate::trace::Trace;
use crate::util::{timed, Checks};
use cluster_sim::{Cluster, CostModel};
use durability::{ByteReader, ByteWriter, CodecError};
use elastic_core::{build_partitioner, Partitioner, PartitionerConfig, PartitionerKind};
use query_engine::Catalog;
use std::collections::BTreeSet;
use workloads::{CellBatch, CycleReport, SuiteReport, Workload, WorkloadRunner};

/// Host threads the runner may use: this benchmark targets a 2-CPU box.
pub const THREADS: usize = 2;

/// The expected query names of the AIS suite, in execution order.
pub const AIS_QUERIES: [&str; 6] = [
    "spj/selection",
    "spj/sort",
    "spj/join",
    "science/statistics",
    "science/modeling",
    "science/projection",
];

/// The expected query names of the MODIS suite, in execution order.
pub const MODIS_QUERIES: [&str; 7] = [
    "spj/selection",
    "spj/sort",
    "spj/join",
    "science/statistics-north",
    "science/statistics-south",
    "science/modeling",
    "science/projection",
];

/// Everything one round of a workload measured. Timings are kept per
/// step (per cycle, per suite run, per cold start) so a run can report
/// the sum of each step's fastest time over its rounds.
#[derive(Default, Clone)]
pub struct RoundOut {
    /// Batch generation, runner construction and view registration.
    pub setup_s: Vec<f64>,
    /// Host seconds inside each `run_cycle`.
    pub cycle_s: Vec<f64>,
    /// Rows inserted plus rows retracted (modeled cells of the placed
    /// descriptors on a metadata-only workload).
    pub rows: u64,
    /// Chunk descriptors placed.
    pub chunks: u64,
    /// Host seconds inside each `run_suites_only`.
    pub query_s: Vec<f64>,
    /// Host seconds of each cold start.
    pub recover_s: Vec<f64>,
    /// Bytes of the durable image the cold start reads.
    pub durable_bytes: u64,
    /// Equation 1 node-hours of the round's runs.
    pub node_hours: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl RoundOut {
    /// Count the suite's queries: one attempt per expected name, one
    /// failure per expected name the suite did not report (the suites
    /// skip a query that returns an error).
    pub fn tally_suite(&mut self, suite: &SuiteReport, expected: &[&str]) {
        self.attempted += expected.len() as u64;
        self.failed += expected.iter().filter(|n| suite.query(n).is_none()).count() as u64;
    }

    /// A round that stopped early still attempts its whole plan: every
    /// operation it did not reach counts as failed, so the failed share
    /// is the same whatever the run length.
    pub fn abandon(&mut self, planned: u64) {
        let missing = planned.saturating_sub(self.attempted);
        self.attempted += missing;
        self.failed += missing;
    }
}

/// Options of one round.
pub struct RoundCtx<'a> {
    pub seed: u64,
    /// Present on the checked round only.
    pub checks: Option<&'a mut Checks>,
    /// Present in the traced run only.
    pub trace: Option<&'a mut Trace>,
    /// Feed one deliberately wrong row to the checks' oracles.
    pub wrong_oracle: bool,
}

/// Fold a suite run outside the cycle back into its cycle report, as the
/// runner does when it runs the suites itself, so Equation 1 counts the
/// simulated query time.
pub fn with_suite(mut report: CycleReport, suite: SuiteReport) -> CycleReport {
    report.phases.query_secs += suite.total_secs();
    report.suites = Some(suite);
    report
}

/// Rows a batch set inserts plus rows it retracts.
pub fn batch_rows(batches: &[CellBatch]) -> u64 {
    batches.iter().map(|b| (b.len() + b.retraction_count()) as u64).sum()
}

/// Distinct chunks a batch set's inserts land in, i.e. the descriptors
/// the cycle builds and places.
pub fn batch_chunks(batches: &[CellBatch], catalog: &Catalog) -> u64 {
    batches
        .iter()
        .map(|b| {
            let schema = &catalog.array(b.array).expect("registered").schema;
            let coords: BTreeSet<_> =
                b.rows().route(schema).expect("generated rows fit").into_iter().collect();
            coords.len() as u64
        })
        .sum()
}

/// Every state surface of a runner, as codec bytes.
#[derive(PartialEq, Eq)]
pub struct Probe {
    pub catalog: Vec<u8>,
    pub cluster: Vec<u8>,
    pub table: Vec<u8>,
    pub views: Vec<u8>,
}

pub fn probe(r: &WorkloadRunner<'_>) -> Probe {
    let mut catalog = ByteWriter::new();
    r.catalog().encode_into(&mut catalog);
    let mut cluster = ByteWriter::new();
    r.cluster().snapshot_into(&mut cluster);
    let mut views = ByteWriter::new();
    r.views().export_states(&mut views);
    Probe {
        catalog: catalog.into_bytes(),
        cluster: cluster.into_bytes(),
        table: r.partitioner().table_snapshot(),
        views: views.into_bytes(),
    }
}

/// Compare two probes surface by surface.
pub fn check_probes(checks: &mut Checks, got: &Probe, want: &Probe, what: &str) {
    checks.check(got.catalog == want.catalog, || format!("{what}: catalog bytes differ"));
    checks.check(got.cluster == want.cluster, || format!("{what}: cluster snapshot differs"));
    checks.check(got.table == want.table, || format!("{what}: partitioner table differs"));
    checks.check(got.views == want.views, || format!("{what}: view states differ"));
}

/// The state image a runner without a log would have to persist to
/// restart: catalog, cluster and partitioner table.
fn encode_state(catalog: &Catalog, cluster: &Cluster, table: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    catalog.encode_into(&mut w);
    cluster.snapshot_into(&mut w);
    w.put_bytes(table);
    w.into_bytes()
}

/// A partitioner rebuilt from its kind, the workload's grid and a table
/// snapshot, the way checkpoint recovery rebuilds one.
pub fn rebuild_partitioner(
    kind: PartitionerKind,
    cluster: &Cluster,
    workload: &dyn Workload,
    table: &[u8],
) -> Result<Box<dyn Partitioner>, CodecError> {
    let config = PartitionerConfig {
        quad_plane: Some(workload.quad_plane()),
        ..PartitionerConfig::default()
    };
    let mut part = build_partitioner(kind, cluster, &workload.grid_hint(), &config);
    part.table_restore(table)?;
    Ok(part)
}

/// Cold start from an [`encode_state`] image: decode the catalog and the
/// cluster (re-aliasing node payloads to the catalog's chunks, as
/// checkpoint recovery does) and rebuild the partitioner from its table.
fn restore_state(
    image: &[u8],
    cost: CostModel,
    workload: &dyn Workload,
    kind: PartitionerKind,
) -> Result<(Catalog, Cluster, Box<dyn Partitioner>), String> {
    let mut r = ByteReader::new(image);
    let catalog = Catalog::decode_from(&mut r).map_err(|e| e.to_string())?;
    let payload_of = |key: &array_model::ChunkKey| {
        catalog.array(key.array).ok()?.data.as_ref()?.shared_chunk(&key.coords).cloned()
    };
    let cluster = Cluster::restore_from(&mut r, cost, &payload_of).map_err(|e| e.to_string())?;
    let table = r.bytes("partitioner table").map_err(|e| e.to_string())?;
    r.finish("state image").map_err(|e| e.to_string())?;
    let part = rebuild_partitioner(kind, &cluster, workload, table).map_err(|e| e.to_string())?;
    Ok((catalog, cluster, part))
}

/// Tries per snapshot cold start: one restore takes a few milliseconds on
/// the smaller workloads, so a round keeps the fastest of several.
pub const COLD_START_TRIES: usize = 3;

/// Time the cold start of a runner without a log: each try is one
/// attempted operation, failed when the restore errors or does not
/// re-encode to the image. Returns the image size.
pub fn snapshot_cold_start(
    out: &mut RoundOut,
    runner: &WorkloadRunner<'_>,
    workload: &dyn Workload,
    kind: PartitionerKind,
) -> u64 {
    let table = runner.partitioner().table_snapshot();
    let image = encode_state(runner.catalog(), runner.cluster(), &table);
    let mut fastest = f64::INFINITY;
    for _ in 0..COLD_START_TRIES {
        let cost = runner.cluster().cost_model().clone();
        let (restored, secs) = timed(|| restore_state(&image, cost, workload, kind));
        fastest = fastest.min(secs);
        out.attempted += 1;
        match restored {
            Ok((catalog, cluster, part))
                if encode_state(&catalog, &cluster, &part.table_snapshot()) == image => {}
            Ok(_) => {
                out.failed += 1;
                eprintln!("cold start: restored state does not re-encode to its image");
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("cold start failed: {e}");
            }
        }
    }
    out.recover_s.push(fastest);
    image.len() as u64
}
