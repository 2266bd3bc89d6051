//! The resident TCP server: accept loop, connection workers, and the
//! request handler shared by both (and by the fuzz tests, which drive
//! [`Service::handle_line`] directly — no socket required).
//!
//! Threading model: one accept thread pushes connections into an mpsc
//! queue drained by a fixed pool of connection workers (one connection
//! per worker at a time; scenario answers within a request may still use
//! the solver's own pool via [`SolveOptions::parallelism`], and `sweep`
//! fans its samples out over that pool). All workers share one
//! [`Service`] — the study cache, metrics registry and solve
//! options — through an `Arc`, which is sound because
//! [`layerbem_core::study::Study`] is `Send + Sync` and its
//! factors are immutable after prepare.
//!
//! The `edit` op is the one **stateful** corner, and its state is
//! deliberately *not* shared: each connection owns an optional
//! [`EditSessionState`] holding a private editable study
//! ([`layerbem_core::incremental::EditSession`]). Cached `Arc<Study>`
//! entries are never mutated — publishing an edited study inserts an
//! immutable [`Study::frozen_clone`] snapshot under the edited
//! geometry's key via [`StudyCache::publish`], which re-charges the
//! entry's resident bytes against the LRU budget.
//!
//! Robustness invariants, each pinned by a test:
//!
//! * a request line is capped at 16 MiB — oversized lines get a typed
//!   protocol error, not unbounded buffering;
//! * every request is answered under `catch_unwind`: a panic anywhere in
//!   parse/prepare/solve becomes an `internal` error line and the worker
//!   lives on;
//! * malformed JSON, bad decks, disconnected electrodes, singular
//!   systems and non-finite drives all map to typed error kinds (see
//!   [`crate::errors::ErrorKind`]).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use layerbem_cad::pipeline::check_model;
use layerbem_cad::{parse_case, CadCase};
use layerbem_core::formulation::SolveOptions;
use layerbem_core::incremental::{EditError, EditOp, EditSession};
use layerbem_core::study::{Scenario, Study};
use layerbem_core::system::{GroundingSolution, GroundingSystem};
use layerbem_core::workload::{quantiles, sample_soils, Quantiles, Workload};
use layerbem_geometry::{MeshOptions, Mesher};
use layerbem_soil::SoilModel;

use crate::cache::{CacheOutcome, StudyCache};
use crate::errors::{ErrorKind, RequestError};
use crate::json::Json;
use crate::key::StudyKey;
use crate::metrics::Metrics;
use crate::protocol::{edit_report_json, parse_request, solution_json, Request};

/// Hard cap on one request line (a deck embedded in JSON): 16 MiB.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Read-poll interval: how often an idle connection checks for shutdown.
const READ_POLL: Duration = Duration::from_millis(200);

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port (see
    /// [`ServerHandle::addr`]).
    pub listen: String,
    /// Study-cache residency budget in bytes (0 = unlimited).
    pub max_resident_bytes: usize,
    /// Connection worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Solve options used for every study (deck `formulation`/`solver`
    /// keywords override their two fields, exactly like the CLI).
    pub solve: SolveOptions,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            max_resident_bytes: 0,
            workers: 2,
            solve: SolveOptions::default(),
        }
    }
}

/// The request-handling core shared by every worker (and usable without
/// any socket — the fuzz suite feeds lines straight in).
pub struct Service {
    cache: StudyCache,
    metrics: Metrics,
    solve: SolveOptions,
}

impl Service {
    /// A service answering with `solve` options under a residency budget.
    pub fn new(max_resident_bytes: usize, solve: SolveOptions) -> Self {
        Service {
            cache: StudyCache::new(max_resident_bytes),
            metrics: Metrics::default(),
            solve,
        }
    }

    /// The shared study cache.
    pub fn cache(&self) -> &StudyCache {
        &self.cache
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Answers one request line with one response line (no trailing
    /// newline). **Never panics**: any panic in the handler is caught and
    /// reported as an `internal` error response.
    ///
    /// Session-less entry point (the fuzz suite and one-shot callers):
    /// an `edit` request must carry its own deck, and the session it
    /// opens is discarded after the line. Connections use
    /// [`handle_line_with_session`](Self::handle_line_with_session).
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_with_session(line, &mut None)
    }

    /// [`handle_line`](Self::handle_line) with a caller-held edit
    /// session: consecutive `edit` requests routed through the same
    /// `session` slot keep editing one private study. A caught panic
    /// drops the session — it may have died mid-edit, and the connection
    /// must not keep answering from a half-updated study.
    pub fn handle_line_with_session(
        &self,
        line: &str,
        session: &mut Option<EditSessionState>,
    ) -> String {
        Metrics::bump(&self.metrics.requests);
        let reply = match catch_unwind(AssertUnwindSafe(|| self.answer(line, session))) {
            Ok(Ok(reply)) => reply,
            Ok(Err(e)) => {
                Metrics::bump(&self.metrics.errors);
                e.to_json()
            }
            Err(_) => {
                *session = None;
                Metrics::bump(&self.metrics.errors);
                RequestError::new(ErrorKind::Internal, "request handler panicked").to_json()
            }
        };
        reply.to_line()
    }

    fn answer(
        &self,
        line: &str,
        session: &mut Option<EditSessionState>,
    ) -> Result<Json, RequestError> {
        match parse_request(line)? {
            Request::Ping => Ok(ok_obj("ping", Json::Obj(Vec::new()))),
            Request::Stats => {
                let (studies, bytes, _) = self.cache.residency();
                Ok(ok_obj(
                    "stats",
                    self.metrics
                        .to_json(studies, bytes, self.cache.max_resident_bytes()),
                ))
            }
            Request::Solve {
                deck,
                scenarios,
                include_leakage,
            } => self.solve(&deck, scenarios, include_leakage),
            Request::Sweep {
                deck,
                samples,
                seed,
                sigma,
                scenarios,
                include_leakage,
            } => self.sweep(&deck, samples, seed, sigma, scenarios, include_leakage),
            Request::Edit {
                deck,
                edits,
                scenarios,
                include_leakage,
                publish,
            } => self.edit(
                deck.as_deref(),
                &edits,
                scenarios,
                include_leakage,
                publish,
                session,
            ),
        }
    }

    fn solve(
        &self,
        deck: &str,
        scenarios: Option<Vec<layerbem_core::study::Scenario>>,
        include_leakage: bool,
    ) -> Result<Json, RequestError> {
        let case = parse_case(deck)?;
        let opts = SolveOptions {
            formulation: case.formulation,
            solver: case.solver,
            ..self.solve
        };
        let key = StudyKey::of(&case, &self.solve);

        let t = Instant::now();
        let (study, outcome) = self
            .cache
            .get_or_prepare(key, || build_study(&case, opts))?;
        let prepare_seconds = t.elapsed();
        match outcome {
            CacheOutcome::Miss => {
                Metrics::bump(&self.metrics.cache_misses);
                self.metrics.prepare.record(prepare_seconds);
            }
            CacheOutcome::Hit => Metrics::bump(&self.metrics.cache_hits),
        }
        // Evictions are owned by the cache; mirror its counter into the
        // metrics registry so `stats` tells one story.
        let (_, _, evictions) = self.cache.residency();
        self.metrics
            .evictions
            .store(evictions, std::sync::atomic::Ordering::Relaxed);

        let scenarios = match scenarios {
            Some(list) => list,
            None => deck_scenarios(&case)?,
        };
        let t = Instant::now();
        let solutions = study.solve_batch(&scenarios)?;
        let solve_seconds = t.elapsed();
        self.metrics.solve.record(solve_seconds);

        Ok(ok_obj(
            "solve",
            Json::obj(vec![
                ("key", Json::str(key.to_string())),
                ("cache_hit", Json::Bool(outcome == CacheOutcome::Hit)),
                ("dof", Json::Num(study.dof() as f64)),
                ("prepare_seconds", Json::Num(prepare_seconds.as_secs_f64())),
                ("solve_seconds", Json::Num(solve_seconds.as_secs_f64())),
                (
                    "solutions",
                    Json::Arr(
                        solutions
                            .iter()
                            .map(|s| solution_json(s, include_leakage))
                            .collect(),
                    ),
                ),
            ]),
        ))
    }

    /// The `sweep` handler: draws `samples` seeded soil models around the
    /// deck's soil, routes each through the study cache under its own
    /// [`StudyKey`] (the key hashes soil layers, so every sample gets a
    /// distinct, reusable entry), answers the shared scenarios, and
    /// reports per-sample results plus GPR/resistance quantiles.
    ///
    /// Samples are drawn **serially** from one seeded generator before
    /// any solve, so a repeated request with the same seed is answered
    /// bit-identically — and entirely from cache.
    ///
    /// When the server's [`SolveOptions::parallelism`] is set, the
    /// samples themselves fan out over the pool (the
    /// [`run_soil_sweep`](layerbem_core::workload::run_soil_sweep)
    /// pattern): each sample prepares and solves with parallelism
    /// stripped inside its slot, which is bit-identical to the pooled
    /// build by the kernel's determinism invariant, so the response
    /// bytes do not depend on the pool. Metrics and response assembly
    /// stay in a serial post-pass, in sample order.
    fn sweep(
        &self,
        deck: &str,
        samples: Option<usize>,
        seed: Option<u64>,
        sigma: Option<f64>,
        scenarios: Option<Vec<Scenario>>,
        include_leakage: bool,
    ) -> Result<Json, RequestError> {
        let case = parse_case(deck)?;
        let opts = SolveOptions {
            formulation: case.formulation,
            solver: case.solver,
            ..self.solve
        };
        // Explicit request fields win; a deck `sweep` stanza fills the
        // gaps; `samples` must come from one of the two.
        let deck_spec = match &case.workload {
            Workload::SoilSweep(spec) => Some(spec),
            _ => None,
        };
        let samples = samples.or(deck_spec.map(|s| s.samples)).ok_or_else(|| {
            RequestError::protocol(
                "sweep expects 'samples' (or a deck with a 'sweep soil-samples' stanza)",
            )
        })?;
        let seed = seed.or(deck_spec.map(|s| s.seed)).unwrap_or(0);
        let sigma = sigma.or(deck_spec.map(|s| s.sigma)).unwrap_or(0.1);
        let scenarios = match scenarios {
            Some(list) => list,
            None => deck_scenarios(&case)?,
        };
        let spec = match Workload::soil_sweep(samples, seed, sigma, scenarios)
            .map_err(|e| RequestError::protocol(e.to_string()))?
        {
            Workload::SoilSweep(spec) => spec,
            _ => unreachable!("soil_sweep constructs a SoilSweep workload"),
        };

        let soils = sample_soils(&case.soil, &spec);
        let keys: Vec<StudyKey> = soils
            .iter()
            .map(|soil| {
                StudyKey::of_parts(case.network.conductors(), &case.mesh_options, soil, &opts)
            })
            .collect();

        // Per-sample solves run serially inside their slot; the sweep
        // itself is the parallel axis. The cache's single-flight keeps
        // duplicate keys to one prepare even when their slots race.
        let inner = SolveOptions {
            parallelism: None,
            ..opts
        };
        let run_one = |i: usize| -> SweepSampleOutcome {
            let t = Instant::now();
            let (study, outcome) = self
                .cache
                .get_or_prepare(keys[i], || build_study_for_soil(&case, &soils[i], inner))?;
            let prepare_seconds = t.elapsed();
            let t = Instant::now();
            let solutions = study.solve_batch(&spec.scenarios)?;
            Ok((outcome, prepare_seconds, t.elapsed(), solutions))
        };
        let mut slots: Vec<Option<SweepSampleOutcome>> = (0..soils.len()).map(|_| None).collect();
        match &self.solve.parallelism {
            Some(par) if soils.len() >= 2 => {
                par.pool
                    .scoped_partition(&mut slots, par.schedule, |i, slot| {
                        *slot = Some(run_one(i));
                    });
            }
            _ => {
                for (i, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(run_one(i));
                }
            }
        }

        // Serial post-pass in sample order: metrics tell one story and
        // the response is identical to the serial loop's, byte for byte.
        let mut results = Vec::with_capacity(soils.len());
        let mut gprs = Vec::with_capacity(soils.len());
        let mut reqs = Vec::with_capacity(soils.len());
        let mut hits = 0usize;
        for (i, slot) in slots.into_iter().enumerate() {
            let (outcome, prepare_seconds, solve_seconds, solutions) =
                slot.expect("every slot visited exactly once")?;
            match outcome {
                CacheOutcome::Miss => {
                    Metrics::bump(&self.metrics.cache_misses);
                    self.metrics.prepare.record(prepare_seconds);
                }
                CacheOutcome::Hit => {
                    Metrics::bump(&self.metrics.cache_hits);
                    hits += 1;
                }
            }
            self.metrics.solve.record(solve_seconds);
            gprs.push(solutions[0].gpr);
            reqs.push(solutions[0].equivalent_resistance);
            results.push(Json::obj(vec![
                ("sample", Json::Num(i as f64)),
                ("soil", soil_json(&soils[i])),
                ("key", Json::str(keys[i].to_string())),
                ("cache_hit", Json::Bool(outcome == CacheOutcome::Hit)),
                (
                    "solutions",
                    Json::Arr(
                        solutions
                            .iter()
                            .map(|s| solution_json(s, include_leakage))
                            .collect(),
                    ),
                ),
            ]));
        }
        let (_, _, evictions) = self.cache.residency();
        self.metrics
            .evictions
            .store(evictions, std::sync::atomic::Ordering::Relaxed);

        Ok(ok_obj(
            "sweep",
            Json::obj(vec![
                ("samples", Json::Num(spec.samples as f64)),
                ("seed", Json::Num(spec.seed as f64)),
                ("sigma", Json::Num(spec.sigma)),
                ("cache_hits", Json::Num(hits as f64)),
                ("results", Json::Arr(results)),
                ("gpr", quantiles_json(quantiles(&gprs))),
                ("req", quantiles_json(quantiles(&reqs))),
            ]),
        ))
    }

    /// The `edit` handler: opens (or continues) the connection's private
    /// edit session, applies the requested ops incrementally, answers
    /// the scenarios from the edited study, and — on `publish` — puts an
    /// immutable snapshot back into the shared cache under the edited
    /// geometry's key, re-charging the residency budget.
    ///
    /// The session's study is **never** the cached `Arc<Study>`: cached
    /// entries stay immutable, which is what makes sharing them across
    /// workers sound. Earlier ops in a request stay committed when a
    /// later one fails — the session always reflects the last
    /// *successful* edit, and the error says which op refused.
    fn edit(
        &self,
        deck: Option<&str>,
        edits: &[EditOp],
        scenarios: Option<Vec<Scenario>>,
        include_leakage: bool,
        publish: bool,
        session: &mut Option<EditSessionState>,
    ) -> Result<Json, RequestError> {
        if let Some(deck) = deck {
            let case = parse_case(deck)?;
            let opts = SolveOptions {
                formulation: case.formulation,
                solver: case.solver,
                ..self.solve
            };
            let scenarios = deck_scenarios(&case)?;
            let t = Instant::now();
            let mut open =
                EditSession::open(case.network.clone(), &case.soil, case.mesh_options, opts)
                    .map_err(edit_error)?;
            // The deck's own `edit` stanzas replay first, exactly like
            // the CLI pipeline.
            for op in &case.edits {
                open.apply(op).map_err(edit_error)?;
            }
            self.metrics.prepare.record(t.elapsed());
            *session = Some(EditSessionState {
                session: open,
                soil: case.soil.clone(),
                mesh_options: case.mesh_options,
                opts,
                scenarios,
            });
        }
        let state = session.as_mut().ok_or_else(|| {
            RequestError::protocol(
                "no edit session is open on this connection; include a 'deck' field to open one",
            )
        })?;
        let mut reports = Vec::with_capacity(edits.len());
        for op in edits {
            reports.push(state.session.apply(op).map_err(edit_error)?);
        }
        let scenarios = match &scenarios {
            Some(list) => list.as_slice(),
            None => state.scenarios.as_slice(),
        };
        let t = Instant::now();
        let solutions = state.session.study().solve_batch(scenarios)?;
        self.metrics.solve.record(t.elapsed());

        let study = state.session.study();
        let profile = study.profile();
        let mut pairs = vec![
            ("dof", Json::Num(study.dof() as f64)),
            ("session_edits", Json::Num(profile.edits as f64)),
            (
                "reports",
                Json::Arr(reports.iter().map(edit_report_json).collect()),
            ),
            (
                "solutions",
                Json::Arr(
                    solutions
                        .iter()
                        .map(|s| solution_json(s, include_leakage))
                        .collect(),
                ),
            ),
        ];
        if publish {
            let key = StudyKey::of_parts(
                state.session.network().conductors(),
                &state.mesh_options,
                &state.soil,
                &state.opts,
            );
            let bytes = self.cache.publish(key, Arc::new(study.frozen_clone()));
            let (_, _, evictions) = self.cache.residency();
            self.metrics
                .evictions
                .store(evictions, std::sync::atomic::Ordering::Relaxed);
            pairs.push(("published_key", Json::str(key.to_string())));
            pairs.push(("published_bytes", Json::Num(bytes as f64)));
        }
        Ok(ok_obj("edit", Json::obj(pairs)))
    }
}

/// The connection-scoped state behind the `edit` op: the live session
/// plus everything needed to key (and publish) its study. Held by the
/// connection loop, not the shared [`Service`] — sessions are private by
/// construction.
pub struct EditSessionState {
    session: EditSession,
    soil: SoilModel,
    mesh_options: MeshOptions,
    opts: SolveOptions,
    scenarios: Vec<Scenario>,
}

/// One sweep sample's outcome: cache route, prepare/solve wall time,
/// and the scenario answers.
type SweepSampleOutcome =
    Result<(CacheOutcome, Duration, Duration, Vec<GroundingSolution>), RequestError>;

/// Maps an edit failure onto the wire error kinds: model-shaped refusals
/// (bad index, a move that disconnects the electrode, …) are `model`, a
/// failed re-prepare is `prepare`, and `NotEditable` — impossible for
/// sessions the server itself opened — is an `internal` defect.
fn edit_error(e: EditError) -> RequestError {
    match e {
        EditError::Model(why) => RequestError::new(ErrorKind::Model, why),
        EditError::Prepare(p) => p.into(),
        EditError::NotEditable(why) => RequestError::new(ErrorKind::Internal, why),
    }
}

/// The scenario list a deck answers when the request doesn't override
/// it. A design-search deck has no scenario list to borrow — that
/// workload shape is a CLI/pipeline feature, not a wire op.
fn deck_scenarios(case: &CadCase) -> Result<Vec<Scenario>, RequestError> {
    match &case.workload {
        Workload::Scenarios(list) => Ok(list.clone()),
        Workload::SoilSweep(spec) => Ok(spec.scenarios.clone()),
        Workload::DesignSearch(_) => Err(RequestError::protocol(
            "deck asks for a design search; pass explicit 'scenarios' or run it via the CLI",
        )),
    }
}

/// The `{"p10":…,"p50":…,"p90":…}` form of sweep quantiles.
fn quantiles_json(q: Quantiles) -> Json {
    Json::obj(vec![
        ("p10", Json::Num(q.p10)),
        ("p50", Json::Num(q.p50)),
        ("p90", Json::Num(q.p90)),
    ])
}

/// A self-describing JSON view of a soil model (sweep responses carry
/// each sample's drawn parameters alongside its results). Non-finite
/// values (the bottom layer's infinite thickness) render as `null` to
/// stay inside JSON.
fn soil_json(soil: &SoilModel) -> Json {
    let num = |x: f64| {
        if x.is_finite() {
            Json::Num(x)
        } else {
            Json::Null
        }
    };
    match soil {
        SoilModel::Uniform { conductivity } => Json::obj(vec![
            ("model", Json::str("uniform")),
            ("conductivity", num(*conductivity)),
        ]),
        SoilModel::TwoLayer {
            upper,
            lower,
            thickness,
        } => Json::obj(vec![
            ("model", Json::str("two-layer")),
            ("upper", num(*upper)),
            ("lower", num(*lower)),
            ("thickness", num(*thickness)),
        ]),
        SoilModel::MultiLayer { layers } => Json::obj(vec![
            ("model", Json::str("multi-layer")),
            (
                "layers",
                Json::Arr(
                    layers
                        .iter()
                        .map(|l| {
                            Json::obj(vec![
                                ("conductivity", num(l.conductivity)),
                                ("thickness", num(l.thickness)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

/// Meshes and prepares a parsed case — the cache's build closure. The
/// model checks run *before* [`GroundingSystem::new`] so an empty or
/// disconnected discretization surfaces as a typed `model` error instead
/// of tripping the constructor's assertions.
pub fn build_study(case: &CadCase, opts: SolveOptions) -> Result<Study, RequestError> {
    build_study_for_soil(case, &case.soil, opts)
}

/// [`build_study`] with the soil model swapped out — the sweep op's
/// build closure (each sampled soil shares the deck's geometry and mesh
/// options but owns its Green's-function series, and hence its study).
pub fn build_study_for_soil(
    case: &CadCase,
    soil: &SoilModel,
    opts: SolveOptions,
) -> Result<Study, RequestError> {
    let mesh = Mesher::new(case.mesh_options).mesh(&case.network);
    check_model(&mesh)?;
    Ok(GroundingSystem::new(mesh, soil, opts).prepare()?)
}

/// `{"ok":true,"op":…, …body fields…}`.
fn ok_obj(op: &str, body: Json) -> Json {
    let mut pairs = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::str(op)),
    ];
    if let Json::Obj(rest) = body {
        pairs.extend(rest);
    }
    Json::Obj(pairs)
}

/// A running server: join handles plus the shared service.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when the config said 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (test hook: inspect cache/metrics in-process).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Stops accepting, drains the workers, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Blocks until the server stops (the binary's foreground mode; only
    /// a signal or process kill ends it).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.shutdown.load(Ordering::SeqCst) {
            self.stop();
        }
    }
}

/// Binds, spawns the accept loop and worker pool, and returns the handle.
pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.listen)?;
    let addr = listener.local_addr()?;
    let service = Arc::new(Service::new(config.max_resident_bytes, config.solve));
    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = mpsc::channel();
    let rx = Arc::new(Mutex::new(rx));

    let workers = (0..config.workers.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || loop {
                let next = rx.lock().expect("worker queue lock").recv();
                match next {
                    Ok(stream) => serve_connection(&service, stream, &shutdown),
                    // Sender dropped: the accept loop is gone, we drain out.
                    Err(_) => return,
                }
            })
        })
        .collect();

    let accept = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            for incoming in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = incoming {
                    // A send only fails when the workers are gone, which
                    // only happens at shutdown.
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
            }
            // Dropping `tx` here wakes every idle worker to exit.
        })
    };

    Ok(ServerHandle {
        addr,
        service,
        shutdown,
        accept: Some(accept),
        workers,
    })
}

/// What one bounded line read produced.
enum LineRead {
    /// A complete `\n`-terminated line is in the buffer (without the
    /// terminator).
    Line,
    /// The peer closed the connection.
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`].
    TooLong,
}

/// Reads one newline-terminated line into `buf`, capped at `max` bytes.
/// On timeout the partial line stays in `buf` and the caller retries.
fn read_line_limited(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<LineRead> {
    loop {
        let (done, used) = {
            let available = reader.fill_buf()?;
            if available.is_empty() {
                // EOF; an unterminated trailing fragment is dropped (the
                // protocol requires newline-terminated requests).
                return Ok(LineRead::Eof);
            }
            match available.iter().position(|b| *b == b'\n') {
                Some(i) => {
                    buf.extend_from_slice(&available[..i]);
                    (true, i + 1)
                }
                None => {
                    buf.extend_from_slice(available);
                    (false, available.len())
                }
            }
        };
        reader.consume(used);
        if buf.len() > max {
            return Ok(LineRead::TooLong);
        }
        if done {
            return Ok(LineRead::Line);
        }
    }
}

/// Serves one connection: request line in, response line out, until EOF,
/// an I/O error, an oversized line, or server shutdown. The connection
/// owns one (initially empty) edit-session slot, so consecutive `edit`
/// requests on a connection keep editing the same private study; it
/// drops with the connection.
///
/// The stream is set `TCP_NODELAY` and every reply leaves in one
/// `write_all` of the line plus its `\n`: with Nagle on, a reply larger
/// than one segment would end in a small tail segment held back until
/// the client's delayed ACK (~40 ms) — a stall no client can avoid.
fn serve_connection(service: &Service, mut stream: TcpStream, shutdown: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let _ = read_half.set_read_timeout(Some(READ_POLL));
    let mut reader = BufReader::new(read_half);
    let mut session: Option<EditSessionState> = None;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match read_line_limited(&mut reader, &mut buf, MAX_LINE_BYTES) {
            Ok(LineRead::Eof) => return,
            Ok(LineRead::TooLong) => {
                let e =
                    RequestError::protocol(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
                let _ = write_line(&mut stream, e.to_json().to_line());
                return;
            }
            Ok(LineRead::Line) => {
                let line = String::from_utf8_lossy(&buf);
                let reply =
                    service.handle_line_with_session(line.trim_end_matches('\r'), &mut session);
                buf.clear();
                if write_line(&mut stream, reply).is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle poll: keep any partial line and re-check shutdown.
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Sends one protocol line — the document and its `\n` — in a single
/// `write_all`.
fn write_line(stream: &mut TcpStream, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    stream.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::ErrorKind;

    const ROD_DECK: &str = "rod 0 0 0.5 2 0.01\n";

    fn service() -> Service {
        Service::new(0, SolveOptions::default())
    }

    fn solve_line(deck: &str) -> String {
        Json::obj(vec![("op", Json::str("solve")), ("deck", Json::str(deck))]).to_line()
    }

    #[test]
    fn ping_answers_ok() {
        let s = service();
        let v = Json::parse(&s.handle_line(r#"{"op":"ping"}"#)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("op").and_then(Json::as_str), Some("ping"));
    }

    #[test]
    fn solve_misses_then_hits_and_stats_reflect_it() {
        let s = service();
        let first = Json::parse(&s.handle_line(&solve_line(ROD_DECK))).unwrap();
        assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(first.get("cache_hit").and_then(Json::as_bool), Some(false));
        let second = Json::parse(&s.handle_line(&solve_line(ROD_DECK))).unwrap();
        assert_eq!(second.get("cache_hit").and_then(Json::as_bool), Some(true));
        // Identical payloads modulo the hit flag and timings.
        assert_eq!(
            first.get("solutions").unwrap().to_line(),
            second.get("solutions").unwrap().to_line()
        );
        let stats = Json::parse(&s.handle_line(r#"{"op":"stats"}"#)).unwrap();
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(1.0));
        assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            cache.get("resident_studies").and_then(Json::as_f64),
            Some(1.0)
        );
        assert!(cache.get("resident_bytes").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(stats.get("requests").and_then(Json::as_f64), Some(3.0));
    }

    fn error_kind(reply: &str) -> String {
        let v = Json::parse(reply).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{reply}");
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    }

    #[test]
    fn every_failure_mode_maps_to_its_typed_kind() {
        let s = service();
        // Protocol: not JSON at all.
        assert_eq!(error_kind(&s.handle_line("garbage")), "protocol");
        // Parse: bad deck keyword.
        assert_eq!(
            error_kind(&s.handle_line(&solve_line("bogus 1\n"))),
            "parse"
        );
        // Model: two disconnected electrodes.
        let disconnected = "rod 0 0 0.5 2 0.01\nrod 500 500 0.5 2 0.01\n";
        assert_eq!(
            error_kind(&s.handle_line(&solve_line(disconnected))),
            "model"
        );
        // Solve: a non-finite drive smuggled through the protocol.
        let line = r#"{"op":"solve","deck":"rod 0 0 0.5 2 0.01\n","scenarios":[{"kind":"gpr","value":1e999}]}"#;
        assert_eq!(error_kind(&s.handle_line(line)), "solve");
        // The service survived all of it.
        let v = Json::parse(&s.handle_line(r#"{"op":"ping"}"#)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            s.metrics().errors.load(Ordering::Relaxed),
            4,
            "each failure counted"
        );
    }

    #[test]
    fn request_scenarios_override_the_decks() {
        let s = service();
        let line = r#"{"op":"solve","deck":"gpr 8000\nrod 0 0 0.5 2 0.01\n","scenarios":[{"kind":"gpr","value":100},{"kind":"fault-current","value":50}]}"#;
        let v = Json::parse(&s.handle_line(line)).unwrap();
        let sols = v.get("solutions").and_then(Json::as_arr).unwrap();
        assert_eq!(sols.len(), 2);
        assert_eq!(sols[0].get("gpr").and_then(Json::as_f64), Some(100.0));
        assert_eq!(
            sols[1].get("total_current").and_then(Json::as_f64),
            Some(50.0)
        );
    }

    #[test]
    fn leakage_is_opt_in() {
        let s = service();
        let lean = Json::parse(&s.handle_line(&solve_line(ROD_DECK))).unwrap();
        let sol = &lean.get("solutions").and_then(Json::as_arr).unwrap()[0];
        assert!(sol.get("leakage").is_none());
        let line = r#"{"op":"solve","deck":"rod 0 0 0.5 2 0.01\n","include_leakage":true}"#;
        let fat = Json::parse(&s.handle_line(line)).unwrap();
        let sol = &fat.get("solutions").and_then(Json::as_arr).unwrap()[0];
        let dof = fat.get("dof").and_then(Json::as_f64).unwrap() as usize;
        assert_eq!(
            sol.get("leakage").and_then(Json::as_arr).unwrap().len(),
            dof
        );
    }

    #[test]
    fn deck_solver_keyword_changes_the_study_key() {
        let s = service();
        let a = Json::parse(&s.handle_line(&solve_line(ROD_DECK))).unwrap();
        let b = Json::parse(&s.handle_line(&solve_line("solver cholesky\nrod 0 0 0.5 2 0.01\n")))
            .unwrap();
        assert_ne!(
            a.get("key").and_then(Json::as_str),
            b.get("key").and_then(Json::as_str)
        );
        assert_eq!(b.get("cache_hit").and_then(Json::as_bool), Some(false));
        assert_eq!(s.cache().residency().0, 2);
    }

    #[test]
    fn sweep_misses_cold_then_answers_warm_from_cache_bit_identically() {
        let s = service();
        let line = r#"{"op":"sweep","deck":"gpr 5000\nrod 0 0 0.5 2 0.01\n","samples":4,"seed":7,"sigma":0.2}"#;
        let cold = Json::parse(&s.handle_line(line)).unwrap();
        assert_eq!(cold.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(cold.get("op").and_then(Json::as_str), Some("sweep"));
        assert_eq!(cold.get("cache_hits").and_then(Json::as_f64), Some(0.0));
        let results = cold.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 4);
        // Every sampled soil hashes to its own study key.
        let keys: std::collections::BTreeSet<&str> = results
            .iter()
            .map(|r| r.get("key").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(keys.len(), 4);
        for r in results {
            assert_eq!(r.get("cache_hit").and_then(Json::as_bool), Some(false));
            assert_eq!(
                r.get("soil")
                    .and_then(|s| s.get("model"))
                    .and_then(Json::as_str),
                Some("uniform")
            );
        }
        let q = cold.get("gpr").unwrap();
        let (p10, p50, p90) = (
            q.get("p10").and_then(Json::as_f64).unwrap(),
            q.get("p50").and_then(Json::as_f64).unwrap(),
            q.get("p90").and_then(Json::as_f64).unwrap(),
        );
        assert!(p10 <= p50 && p50 <= p90);
        // Same seed again: all four studies come back from the cache and
        // the per-sample payloads are bit-identical.
        let warm = Json::parse(&s.handle_line(line)).unwrap();
        assert_eq!(warm.get("cache_hits").and_then(Json::as_f64), Some(4.0));
        for (c, w) in results
            .iter()
            .zip(warm.get("results").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(
                c.get("solutions").unwrap().to_line(),
                w.get("solutions").unwrap().to_line()
            );
            assert_eq!(w.get("cache_hit").and_then(Json::as_bool), Some(true));
        }
        assert_eq!(s.cache().residency().0, 4);
    }

    #[test]
    fn sweep_defaults_come_from_the_deck_stanza() {
        let s = service();
        let deck = "gpr 5000\nrod 0 0 0.5 2 0.01\nsweep soil-samples 3 seed 9 sigma 0.1\n";
        let line = Json::obj(vec![("op", Json::str("sweep")), ("deck", Json::str(deck))]).to_line();
        let v = Json::parse(&s.handle_line(&line)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        assert_eq!(v.get("samples").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("seed").and_then(Json::as_f64), Some(9.0));
        assert_eq!(v.get("sigma").and_then(Json::as_f64), Some(0.1));
        assert_eq!(v.get("results").and_then(Json::as_arr).unwrap().len(), 3);
    }

    #[test]
    fn sweep_without_samples_anywhere_is_a_protocol_error() {
        let s = service();
        let line = r#"{"op":"sweep","deck":"rod 0 0 0.5 2 0.01\n"}"#;
        assert_eq!(error_kind(&s.handle_line(line)), "protocol");
        // Zero samples is rejected by the workload validator, same kind.
        let line = r#"{"op":"sweep","deck":"rod 0 0 0.5 2 0.01\n","samples":0,"seed":1}"#;
        assert_eq!(error_kind(&s.handle_line(line)), "protocol");
    }

    #[test]
    fn pooled_sweeps_answer_byte_identically_to_serial_ones() {
        use layerbem_parfor::{Schedule, ThreadPool};
        let line = r#"{"op":"sweep","deck":"gpr 5000\nrod 0 0 0.5 2 0.01\n","samples":4,"seed":7,"sigma":0.2}"#;
        let serial = service().handle_line(line);
        let pooled = Service::new(
            0,
            SolveOptions::default().with_parallelism(ThreadPool::new(4), Schedule::dynamic(1)),
        )
        .handle_line(line);
        // The sweep response carries no wall-clock fields, so fanning the
        // samples out over the pool must not change a single byte.
        assert_eq!(serial, pooled);
    }

    #[test]
    fn edit_sessions_continue_across_lines_and_publish_into_the_cache() {
        let s = service();
        let mut session = None;
        // Open a session from a deck: no ops yet, just the baseline answer.
        let open = r#"{"op":"edit","deck":"gpr 5000\nrod 0 0 0.5 2 0.01\n"}"#;
        let v = Json::parse(&s.handle_line_with_session(open, &mut session)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        assert_eq!(v.get("op").and_then(Json::as_str), Some("edit"));
        assert_eq!(v.get("reports").and_then(Json::as_arr).unwrap().len(), 0);
        assert_eq!(v.get("solutions").and_then(Json::as_arr).unwrap().len(), 1);
        assert!(session.is_some(), "the connection now holds a session");
        assert_eq!(s.cache().residency().0, 0, "sessions are private");

        // Continue on the same connection WITHOUT a deck: stretch the
        // rod's free end and publish the edited study.
        let mv = r#"{"op":"edit","edits":[{"kind":"move-end","index":0,"end":"b","delta":[0,0,0.5]}],"publish":true}"#;
        let v2 = Json::parse(&s.handle_line_with_session(mv, &mut session)).unwrap();
        assert_eq!(v2.get("ok").and_then(Json::as_bool), Some(true), "{v2:?}");
        let reports = v2.get("reports").and_then(Json::as_arr).unwrap();
        assert_eq!(reports.len(), 1);
        let path = reports[0].get("path").and_then(Json::as_str).unwrap();
        assert!(
            ["incremental", "refactor", "rebuild"].contains(&path),
            "a real edit must take a real route, got {path}"
        );
        assert_eq!(v2.get("session_edits").and_then(Json::as_f64), Some(1.0));
        let published = v2.get("published_key").and_then(Json::as_str).unwrap();
        assert!(v2.get("published_bytes").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(s.cache().residency().0, 1);

        // The published entry lives under the edited geometry's key: a
        // plain solve of the equivalent deck is a cache HIT and answers
        // bit-identically to the session's own solutions.
        let direct = solve_line("gpr 5000\nrod 0 0 0.5 2.5 0.01\n");
        let v3 = Json::parse(&s.handle_line(&direct)).unwrap();
        assert_eq!(v3.get("cache_hit").and_then(Json::as_bool), Some(true));
        assert_eq!(v3.get("key").and_then(Json::as_str), Some(published));
        assert_eq!(
            v3.get("solutions").unwrap().to_line(),
            v2.get("solutions").unwrap().to_line()
        );
    }

    #[test]
    fn edit_failures_are_typed_and_leave_the_session_usable() {
        let s = service();
        // No session on this line and no deck to open one: protocol.
        assert_eq!(error_kind(&s.handle_line(r#"{"op":"edit"}"#)), "protocol");

        let mut session = None;
        let open = r#"{"op":"edit","deck":"gpr 5000\nrod 0 0 0.5 2 0.01\n"}"#;
        let v = Json::parse(&s.handle_line_with_session(open, &mut session)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        // An out-of-range index is a model-shaped refusal…
        let bad = r#"{"op":"edit","edits":[{"kind":"remove","index":99}]}"#;
        assert_eq!(
            error_kind(&s.handle_line_with_session(bad, &mut session)),
            "model"
        );
        // …and the session survives it: the next line keeps editing.
        assert!(session.is_some());
        let ok =
            r#"{"op":"edit","edits":[{"kind":"move-end","index":0,"end":"b","delta":[0,0,0.25]}]}"#;
        let v = Json::parse(&s.handle_line_with_session(ok, &mut session)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    }

    #[test]
    fn build_study_rejects_bad_models_as_typed_errors() {
        let case = parse_case("rod 0 0 0.5 2 0.01\nrod 900 900 0.5 2 0.01\n").unwrap();
        let e = build_study(&case, SolveOptions::default()).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Model);
        assert!(e.message.contains("connected"), "{}", e.message);
    }
}
