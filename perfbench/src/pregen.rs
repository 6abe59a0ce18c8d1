//! A [`Workload`] whose batches were generated up front.
//!
//! The benchmark generates every cycle's cell batches (or, on a
//! metadata-only workload, its descriptor batches) during set-up and
//! serves them to the runner from memory, so the generator's own cost
//! stays out of the cycle timings. Everything else forwards to the
//! wrapped generator. The wrapper must be transparent: a run through it
//! writes the same log and reaches the same end state as a run through
//! the bare generator (checked by each workload's first round).

use array_model::ChunkDescriptor;
use elastic_core::GridHint;
use query_engine::{Catalog, ExecutionContext};
use workloads::{CellBatch, SuiteReport, Workload};

pub struct Pregenerated<W: Workload> {
    inner: W,
    /// Per cycle: the cell batches of a materialized workload.
    cells: Vec<Option<Vec<CellBatch>>>,
    /// Per cycle: the descriptor batch of a metadata-only workload
    /// (empty when the cycle is materialized).
    inserts: Vec<Vec<ChunkDescriptor>>,
    derived: Vec<Vec<ChunkDescriptor>>,
}

impl<W: Workload> Pregenerated<W> {
    pub fn new(inner: W) -> Self {
        let n = inner.cycles();
        let cells: Vec<Option<Vec<CellBatch>>> = (0..n).map(|c| inner.cell_batch(c)).collect();
        let inserts = (0..n)
            .map(|c| if cells[c].is_some() { Vec::new() } else { inner.insert_batch(c) })
            .collect();
        let derived = (0..n).map(|c| inner.derived_batch(c)).collect();
        Pregenerated { inner, cells, inserts, derived }
    }

    pub fn inner(&self) -> &W {
        &self.inner
    }

    /// The cell batches cycle `c` receives (`None` on metadata-only
    /// workloads).
    pub fn cells(&self, c: usize) -> Option<&[CellBatch]> {
        self.cells[c].as_deref()
    }

    /// The descriptor batch cycle `c` receives on a metadata-only workload.
    pub fn inserts(&self, c: usize) -> &[ChunkDescriptor] {
        &self.inserts[c]
    }

    /// The derived-result descriptors cycle `c` stores.
    pub fn derived(&self, c: usize) -> &[ChunkDescriptor] {
        &self.derived[c]
    }
}

impl<W: Workload> Workload for Pregenerated<W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cycles(&self) -> usize {
        self.inner.cycles()
    }

    fn register_arrays(&self, catalog: &mut Catalog) {
        self.inner.register_arrays(catalog)
    }

    fn insert_batch(&self, cycle: usize) -> Vec<ChunkDescriptor> {
        if self.cells[cycle].is_some() {
            // The runner never asks a materialized cycle for descriptors;
            // forward rather than keep a second, unused batch.
            return self.inner.insert_batch(cycle);
        }
        self.inserts[cycle].clone()
    }

    fn cell_batch(&self, cycle: usize) -> Option<Vec<CellBatch>> {
        // Served on every call: recovery replays a cycle by asking for
        // its batch again.
        self.cells[cycle].clone()
    }

    fn derived_batch(&self, cycle: usize) -> Vec<ChunkDescriptor> {
        self.derived[cycle].clone()
    }

    fn grid_hint(&self) -> GridHint {
        self.inner.grid_hint()
    }

    fn quad_plane(&self) -> (usize, usize) {
        self.inner.quad_plane()
    }

    fn run_suites(&self, ctx: &ExecutionContext<'_>, cycle: usize) -> SuiteReport {
        self.inner.run_suites(ctx, cycle)
    }
}
