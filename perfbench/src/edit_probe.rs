//! The edit layers, measured in-process by `serve-scenarios`' traced run.
//!
//! A session opens refined Barberá with a probe rod (2226 dof, uniform
//! soil, Cholesky) and applies a seeded random walk of `move-end` nudges
//! of the rod's free end, kept short enough that the rod stays two
//! elements, so every edit stays on the incremental route (pair
//! re-integration plus a rank-k update of the retained factor). Every
//! [`PUBLISH_EVERY`]th edit publishes its study into a cache whose budget
//! holds one snapshot, so publishing evicts.
//!
//! Edits are not a listed workload over the wire: their round trips are
//! bound by the factor update's strided, DRAM-latency-bound walk, and on
//! a shared 2-vCPU host their ten-run spread reached the largest bound
//! the benchmark may set.

use std::sync::Arc;
use std::time::{Duration, Instant};

use layerbem_bench::soils;
use layerbem_core::formulation::{SolveOptions, SolverChoice};
use layerbem_core::incremental::{ConductorEnd, EditOp, EditPath, EditReport, EditSession};
use layerbem_geometry::conductor::ground_rod;
use layerbem_geometry::{grids, MeshOptions, Point3};
use layerbem_serve::{StudyCache, StudyKey};

use crate::decks::{self, Rng};
use crate::trace::Tracer;
use crate::{median, solve_options, Outcome};

/// Every how many edits one publishes.
const PUBLISH_EVERY: usize = 8;

/// Cache budget: room for one published snapshot (a 2226-dof packed
/// factor is 19.8 MB) but not two, so each publish under a new key
/// evicts the previous one.
const CACHE_BUDGET: usize = 30 << 20;

/// Element length of the refined grid; the probe rod is kept between
/// 1.2 and 1.9 m long so it always meshes into two elements.
const ELEMENT_LENGTH: f64 = 1.0;

/// The probe rod's fixed top end (the grid's origin corner).
const ROD_TOP: [f64; 3] = [0.0, 0.0, 0.8];

/// The seeded walk of the rod's free end.
struct Walk {
    rng: Rng,
    end: [f64; 3],
}

impl Walk {
    fn next(&mut self, rod: usize) -> EditOp {
        loop {
            let mut delta = [0.0; 3];
            for d in &mut delta {
                let step = self.rng.range(0.03, 0.15);
                *d = if self.rng.unit() < 0.5 { -step } else { step };
            }
            let end = [
                self.end[0] + delta[0],
                self.end[1] + delta[1],
                self.end[2] + delta[2],
            ];
            let length = ((end[0] - ROD_TOP[0]).powi(2)
                + (end[1] - ROD_TOP[1]).powi(2)
                + (end[2] - ROD_TOP[2]).powi(2))
            .sqrt();
            if end[0].abs() <= 0.4 && end[1].abs() <= 0.4 && (1.2..=1.9).contains(&length) {
                self.end = end;
                return EditOp::MoveEnd {
                    index: rod,
                    end: ConductorEnd::B,
                    delta,
                };
            }
        }
    }
}

/// The update and re-integration metrics of a run of incremental edits.
fn edit_metrics(out: &mut Outcome, reports: &[EditReport], attempted: usize, n: f64) {
    let col = |f: &dyn Fn(&EditReport) -> f64| reports.iter().map(f).collect::<Vec<f64>>();
    out.layer("update.ms", 1e3 * median(&col(&|r| r.update_seconds)));
    out.layer("update.rank", median(&col(&|r| r.update_rank as f64)));
    // A rank-1 sweep applies a plane rotation (6 flops) to each of the
    // n²/2 packed entries.
    out.layer(
        "update.gflops",
        median(&col(&|r| {
            r.update_rank as f64 * 3.0 * n * n / r.update_seconds / 1e9
        })),
    );
    out.layer(
        "reintegrate.ms",
        1e3 * median(&col(&|r| r.reintegrate_seconds)),
    );
    out.layer(
        "reintegrate.pairs",
        median(&col(&|r| r.pairs_evaluated as f64)),
    );
    // An edit routed any other way counts as failed, so this is the
    // share of attempted edits that came back incremental.
    out.layer(
        "edit.incremental_share",
        reports.len() as f64 / attempted.max(1) as f64,
    );
}

/// Opens the probe-rod session and applies `edits` steps of the seeded
/// walk with a span around each call, publishing every
/// [`PUBLISH_EVERY`]th study into a cache of [`CACHE_BUDGET`]. Sets the
/// update, re-integration and publish metrics and returns the cache's
/// evictions. Its spans use request ids counting down from `u64::MAX`.
pub fn edit_probe(
    out: &mut Outcome,
    tr: &mut Tracer,
    seed: u64,
    edits: usize,
) -> Result<u64, String> {
    let mut network = grids::barbera();
    network.add(ground_rod(
        Point3::new(ROD_TOP[0], ROD_TOP[1], ROD_TOP[2]),
        1.5,
        0.007,
    ));
    let rod = network.len() - 1;
    let soil = soils::barbera_uniform();
    let scenarios = decks::scenario_pair(&mut Rng::new(seed, 3));
    let opts = SolveOptions {
        solver: SolverChoice::Cholesky,
        ..solve_options()
    };
    let mesh_options = MeshOptions {
        max_element_length: ELEMENT_LENGTH,
        ..Default::default()
    };
    let end = network.conductors()[rod].axis.b;
    let mut walk = Walk {
        rng: Rng::new(seed, 4),
        end: [end.x, end.y, end.z],
    };
    let mut session = EditSession::open(network, &soil, mesh_options, opts)
        .map_err(|e| format!("probe session: {e}"))?;
    let cache = StudyCache::new(CACHE_BUDGET);
    let mut done = Vec::with_capacity(edits);
    let mut publish_s = Vec::new();
    for i in 0..edits {
        let op = walk.next(rod);
        let request = u64::MAX - i as u64;
        let span = tr.begin("core.incremental", None, request);
        let applied = session.apply(&op);
        let apply = Duration::from_secs_f64(tr.end(span));
        let report = match applied {
            Ok(r) => r,
            Err(e) => {
                out.check(Err(format!("probe edit failed: {e}")));
                continue;
            }
        };
        // The factor update is the tail of the incremental call.
        let update = Duration::from_secs_f64(report.update_seconds).min(apply);
        tr.reported("numeric.update", span, apply - update, update);
        let solutions = tr.time("core.study", None, request, || {
            session.study().solve_batch(&scenarios)
        });
        if i % PUBLISH_EVERY == PUBLISH_EVERY / 2 {
            let key = tr.time("serve.key", None, request, || {
                StudyKey::of_parts(
                    session.network().conductors(),
                    &mesh_options,
                    &soil,
                    session.study().options(),
                )
            });
            let t = Instant::now();
            tr.time("serve.cache", None, request, || {
                cache.publish(key, Arc::new(session.study().frozen_clone()))
            });
            publish_s.push(t.elapsed().as_secs_f64());
        }
        let verdict = match (&report.path, solutions) {
            (EditPath::Incremental, Ok(_)) => Ok(()),
            (path, Ok(_)) => Err(format!("probe edit routed {}", path.label())),
            (_, Err(e)) => Err(format!("probe solve failed: {e}")),
        };
        if verdict.is_ok() {
            done.push(report);
        }
        out.check(verdict);
    }
    edit_metrics(out, &done, edits, session.study().dof() as f64);
    out.layer("publish.ms", 1e3 * median(&publish_s));
    Ok(cache.residency().2)
}
