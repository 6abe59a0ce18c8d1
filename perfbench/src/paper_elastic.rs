//! `paper-elastic`: the paper's own §6.2 experiment.
//!
//! All eight partitioners on both paper-scale workloads, metadata only
//! (chunk descriptors, no cell payloads), with the cost-model query
//! suites after every cycle. Partitioner routing, placement, scale-out
//! rebalance and query planning do the work; the array, view and log
//! layers do none. Without a log, each runner's cold start restores its
//! end state from the catalog, cluster and partitioner snapshot codecs.

use crate::common::{
    check_probes, probe, snapshot_cold_start, with_suite, RoundCtx, RoundOut, AIS_QUERIES,
    COLD_START_TRIES, MODIS_QUERIES, THREADS,
};
use crate::pregen::Pregenerated;
use crate::trace::{self, CycleShape, PreCycle};
use crate::util::{timed, Checks};
use array_model::ChunkDescriptor;
use elastic_core::PartitionerKind;
use query_engine::ExecutionContext;
use workloads::{
    AisWorkload, CycleReport, ModisWorkload, RunReport, RunnerConfig, Workload, WorkloadRunner,
};

fn config(kind: PartitionerKind) -> RunnerConfig {
    RunnerConfig {
        run_queries: false,
        ingest_threads: THREADS,
        ..RunnerConfig::paper_section62(kind)
    }
}

/// One of the two paper workloads, pre-generated.
enum Paper {
    Modis(Pregenerated<ModisWorkload>),
    Ais(Pregenerated<AisWorkload>),
}

impl Paper {
    fn workload(&self) -> &dyn Workload {
        match self {
            Paper::Modis(w) => w,
            Paper::Ais(w) => w,
        }
    }

    fn generator(&self) -> &dyn Workload {
        match self {
            Paper::Modis(w) => w.inner(),
            Paper::Ais(w) => w.inner(),
        }
    }

    fn inserts(&self, c: usize) -> &[ChunkDescriptor] {
        match self {
            Paper::Modis(w) => w.inserts(c),
            Paper::Ais(w) => w.inserts(c),
        }
    }

    fn derived(&self, c: usize) -> &[ChunkDescriptor] {
        match self {
            Paper::Modis(w) => w.derived(c),
            Paper::Ais(w) => w.derived(c),
        }
    }

    fn expected_queries(&self) -> &'static [&'static str] {
        match self {
            Paper::Modis(_) => &MODIS_QUERIES,
            Paper::Ais(_) => &AIS_QUERIES,
        }
    }
}

/// Operations one round attempts: for each partitioner and workload,
/// each cycle, each expected query of each suite run, and each try of the
/// cold start.
fn planned(papers: &[Paper]) -> u64 {
    let per_kind: usize = papers
        .iter()
        .map(|p| p.workload().cycles() * (1 + p.expected_queries().len()) + COLD_START_TRIES)
        .sum();
    (per_kind * PartitionerKind::ALL.len()) as u64
}

/// The paper's AIS workload holds about 400 GB over its 10 cycles
/// (§3.2). The generator's volume is a random walk, so a seed picked at
/// random lands anywhere from about 300 to 480 GB and moves node-hours
/// and scale-out work by a fifth. Step from the given seed to the first
/// one whose volume is within 1 % of the paper's: the seed still varies
/// every chunk, but not the experiment's scale.
fn paper_ais(seed: u64) -> AisWorkload {
    const PAPER_GB: f64 = 400.0;
    (0..10_000u64)
        .map(|k| AisWorkload::with_seed(seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))))
        .find(|w| {
            let bytes: u64 = (0..w.cycles).map(|c| w.cycle_insert_bytes(c)).sum();
            (bytes as f64 / 1e9 - PAPER_GB).abs() <= 0.01 * PAPER_GB
        })
        .expect("a seed near the paper's volume within 10 000 steps")
}

fn generators(seed: u64) -> (ModisWorkload, AisWorkload) {
    (ModisWorkload::with_seed(seed), paper_ais(seed))
}

pub fn round(ctx: &mut RoundCtx<'_>) -> RoundOut {
    let mut out = RoundOut::default();
    let twins = ctx.checks.is_some().then(|| {
        let (modis, ais) = generators(ctx.seed);
        let mut probes = Vec::new();
        for kind in PartitionerKind::ALL {
            for bare in [&modis as &dyn Workload, &ais] {
                let mut twin = WorkloadRunner::new(bare, config(kind));
                let ok = (0..bare.cycles()).all(|c| twin.run_cycle(c).is_ok());
                probes.push(ok.then(|| probe(&twin)));
            }
        }
        probes
    });
    let (modis, ais) = generators(ctx.seed);
    let (papers, gen_s) =
        timed(|| [Paper::Modis(Pregenerated::new(modis)), Paper::Ais(Pregenerated::new(ais))]);
    let (runners, runner_s) = timed(|| {
        let mut runners = Vec::new();
        for kind in PartitionerKind::ALL {
            for paper in &papers {
                runners.push((kind, paper, WorkloadRunner::new(paper.workload(), config(kind))));
            }
        }
        runners
    });
    out.setup_s = vec![gen_s, runner_s];

    let mut runs: Vec<(PartitionerKind, &Paper, WorkloadRunner<'_>, Vec<CycleReport>)> = Vec::new();
    for (kind, paper, mut runner) in runners {
        let mut reports = Vec::new();
        for c in 0..paper.workload().cycles() {
            let pre = ctx.trace.as_deref_mut().map(|t| {
                t.time("workloads.gen_chunks_per_s", paper.inserts(c).len() as f64, || {
                    paper.generator().insert_batch(c)
                });
                PreCycle::take(&runner)
            });
            let (result, secs) = timed(|| runner.run_cycle(c));
            out.cycle_s.push(secs);
            out.attempted += 1;
            let report = match result {
                Ok(r) => r,
                Err(e) => {
                    eprintln!(
                        "paper-elastic {kind:?} {} cycle {c} failed: {e}",
                        paper.workload().name()
                    );
                    out.failed += 1;
                    out.abandon(planned(&papers));
                    return out;
                }
            };
            let placed = paper.inserts(c).iter().chain(paper.derived(c));
            out.rows += placed.clone().map(|d| d.cells).sum::<u64>();
            out.chunks += placed.count() as u64;
            if let (Some(t), Some(pre)) = (ctx.trace.as_deref_mut(), pre) {
                t.cycle(secs);
                trace::census(t, runner.cluster());
                let shape = CycleShape {
                    kind,
                    workload: paper.workload(),
                    added_nodes: report.added_nodes,
                    node_capacity: config(kind).node_capacity,
                    faults: false,
                };
                trace::replay_cluster(t, pre, &shape, &[paper.inserts(c), paper.derived(c)]);
            }
            let (suite, secs) = timed(|| runner.run_suites_only(c));
            out.query_s.push(secs);
            out.tally_suite(&suite, paper.expected_queries());
            if let Some(t) = ctx.trace.as_deref_mut() {
                let ectx = ExecutionContext::new(runner.cluster(), runner.catalog());
                match paper {
                    Paper::Modis(_) => crate::modis_ttl::replay_suite(t, &ectx, c, &suite),
                    Paper::Ais(w) => crate::ais_churn::replay_suite(t, &ectx, w.inner(), c, &suite),
                }
            }
            reports.push(with_suite(report, suite));
        }
        runs.push((kind, paper, runner, reports));
    }
    for (kind, paper, runner, reports) in &runs {
        let run = RunReport { partitioner: *kind, cycles: reports.clone(), failures: Vec::new() };
        out.node_hours += run.node_hours();
        out.durable_bytes += snapshot_cold_start(&mut out, runner, paper.workload(), *kind);
        if let Some(t) = ctx.trace.as_deref_mut() {
            trace::snapshot_size(t, runner.cluster());
        }
    }
    if let Some(t) = ctx.trace.as_deref_mut() {
        t.end_round();
    }
    if let Some(checks) = ctx.checks.as_deref_mut() {
        let twins = twins.expect("checked round runs the twins");
        for ((kind, paper, runner, reports), twin) in runs.iter().zip(twins) {
            let what = format!("{kind:?} on {}", paper.workload().name());
            match twin {
                Some(twin) => check_probes(checks, &twin, &probe(runner), &what),
                None => checks.check(false, || format!("{what}: bare-generator twin failed")),
            }
            check_run(checks, ctx.wrong_oracle, &what, *kind, paper, runner, reports);
        }
    }
    out
}

fn check_run(
    checks: &mut Checks,
    wrong_oracle: bool,
    what: &str,
    kind: PartitionerKind,
    paper: &Paper,
    runner: &WorkloadRunner<'_>,
    reports: &[CycleReport],
) {
    let cycles = paper.workload().cycles();
    let placed: Vec<&ChunkDescriptor> =
        (0..cycles).flat_map(|c| paper.inserts(c).iter().chain(paper.derived(c))).collect();
    let mut want: u64 = placed.iter().map(|d| d.bytes).sum();
    if wrong_oracle && kind == PartitionerKind::ALL[0] {
        want += 1;
    }
    let loads: u64 = runner.cluster().loads().iter().sum();
    checks.check(loads == want, || format!("{what}: node loads sum to {loads}, placed {want}"));
    let disagree = placed
        .iter()
        .filter(|d| {
            let at = runner.cluster().locate(&d.key);
            at.is_none() || runner.partitioner().locate(&d.key) != at
        })
        .count();
    checks.check(disagree == 0, || {
        format!(
            "{what}: locate disagrees with the cluster on {disagree} of {} chunks",
            placed.len()
        )
    });
    if kind == PartitionerKind::Append {
        let moved: u64 = reports.iter().map(|r| r.moved_bytes).sum();
        let scaled = reports.iter().filter(|r| r.added_nodes > 0).count();
        checks.check(scaled > 0 && moved == 0, || {
            format!("{what}: {scaled} Append scale-outs moved {moved} bytes")
        });
    }
}
