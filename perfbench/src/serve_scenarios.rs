//! `serve-scenarios`: a resident `layerbem-serve` on loopback with 2
//! workers, answering seeded `solve` requests from 2 closed-loop
//! connections through the unmodified `ServeClient`.
//!
//! Every study is prepared during setup, so every timed request is a
//! cache hit carrying 1–8 GPR/fault-current scenarios; a fixed share asks
//! for the leakage vectors. The resident studies, with their share of
//! requests, are:
//!
//! * refined Barberá, uniform soil, Cholesky — 2224 dof, a 20 MB packed
//!   factor, larger than the last-level cache (0.40);
//! * coarse Barberá two-layer, conjugate gradients, the deck default
//!   (0.25);
//! * Balaidos model C, Cholesky — a cache-resident 0.2 MB factor (0.20);
//! * a small rod bed, Cholesky — the one deck under the client's 8 KiB
//!   `BufWriter`, so requests fall on both sides of it (0.15).
//!
//! No record of served traffic exists, so the mix is chosen, not
//! measured: the memory-bound refined study, the costliest hit, gets the
//! largest share; the rod bed gets enough requests for a steady
//! under-8 KiB socket median; scenario counts are uniform over 1–8, from
//! a single case to a small sweep; one request in eight asks for the
//! leakage vectors, whose replies are the largest. About 85% of requests
//! are over 8 KiB; the run reports the measured share.
//!
//! Why: the kernel does nothing here. The time goes to parsing and
//! keying the deck on every request, the cache lookup, triangular solves
//! (memory-bound and cache-resident), PCG, JSON encoding and the socket.
//! Neither side sets `TCP_NODELAY`, and the benchmark leaves it so.
//!
//! The traced run alternates traced and untraced requests. A traced
//! request is replayed twice in-process on the server's own `Service`
//! after its round trip: once through `handle_line` (service time; the
//! rest of the round trip is socket time) and once stage by stage with a
//! span around each public call. Both are placed inside the round-trip
//! span, so self times split the round trip into socket and layers.
//! After the requests it runs the in-process edit probe of
//! [`crate::edit_probe`], so the edit layers are measured here as well.

use std::sync::Arc;
use std::time::{Duration, Instant};

use layerbem_bench::soils;
use layerbem_cad::parse_case;
use layerbem_core::formulation::{SolveOptions, SolverChoice};
use layerbem_core::study::{Scenario, Study};
use layerbem_core::system::GroundingSystem;
use layerbem_geometry::{grids, ConductorNetwork, Mesher};
use layerbem_serve::protocol::{parse_request, scenario_json, solution_json, Request};
use layerbem_serve::{
    build_study, spawn, CacheOutcome, Json, ServeClient, ServerConfig, ServerHandle, Service,
    SolveReply, StudyKey,
};
use layerbem_soil::SoilModel;

use crate::decks::{self, DeckSpec, Rng};
use crate::edit_probe::edit_probe;
use crate::trace::{stage, Tracer};
use crate::{median, solve_options, Args, Outcome, SETUP_REPS, THREADS};

/// Every how many requests a connection keeps the reply for the
/// bit-identity check against a direct `Study::solve`.
const SAMPLE_EVERY: usize = 16;

/// Share of requests asking for leakage vectors.
const LEAKAGE_SHARE: f64 = 0.125;

/// Edits the traced run applies in-process after the requests, so the
/// edit layers (`core.incremental`, `numeric.update`, publishing) are
/// measured on this workload too.
const EDIT_PROBE: usize = 16;

/// One resident study.
struct Served {
    name: &'static str,
    deck: String,
    /// Share of requests addressed to it.
    weight: f64,
    /// Filled in at setup from the preparing reply.
    key: String,
    dof: usize,
}

fn studies(seed: u64) -> Result<Vec<Served>, String> {
    let mut rng = Rng::new(seed, 2);
    let barbera = grids::barbera();
    let balaidos = grids::balaidos();
    let mut deck = |title: &str,
                    soil: &SoilModel,
                    solver: Option<&'static str>,
                    len: Option<f64>,
                    net: &ConductorNetwork,
                    extra: &str| {
        let spec = DeckSpec {
            title: format!("{title} {}", rng.int(0, 9999)),
            soil,
            gpr: rng.range(5_000.0, 15_000.0).round(),
            solver,
            max_element_length: len,
            scenarios: Vec::new(),
        };
        decks::write_deck(&spec, net, extra)
    };
    let refined = deck(
        "refined Barbera uniform",
        &soils::barbera_uniform(),
        Some("cholesky"),
        Some(1.0),
        &barbera,
        "",
    );
    let coarse = deck(
        "Barbera two-layer",
        &soils::barbera_two_layer(),
        None,
        None,
        &barbera,
        "",
    );
    let balaidos_c = deck(
        "Balaidos C",
        &soils::balaidos_c(),
        Some("cholesky"),
        None,
        &balaidos,
        "",
    );
    let rods = deck(
        "rod bed",
        &SoilModel::two_layer(0.01, 0.02, 1.2),
        Some("cholesky"),
        None,
        &ConductorNetwork::new(),
        "grid rect 0 0 12 12 3 3 0.6 0.006\nrod 0 0 0.6 2 0.008\nrod 12 0 0.6 2 0.008\n\
         rod 0 12 0.6 2 0.008\nrod 12 12 0.6 2 0.008\n",
    );
    decks::check_round_trip(&refined, &barbera)?;
    decks::check_round_trip(&coarse, &barbera)?;
    decks::check_round_trip(&balaidos_c, &balaidos)?;
    let served = |name, deck: String, weight| Served {
        name,
        deck,
        weight,
        key: String::new(),
        dof: 0,
    };
    Ok(vec![
        served("refined-barbera", refined, 0.40),
        served("barbera-two-layer", coarse, 0.25),
        served("balaidos-c", balaidos_c, 0.20),
        served("rod-bed", rods, 0.15),
    ])
}

/// Spawns a server and prepares every study through it (one miss each).
fn set_up(studies: &mut [Served]) -> Result<ServerHandle, String> {
    let server = spawn(ServerConfig {
        listen: "127.0.0.1:0".into(),
        max_resident_bytes: 0,
        workers: THREADS,
        solve: solve_options(),
    })
    .map_err(|e| format!("cannot start the server: {e}"))?;
    let mut client = ServeClient::connect(server.addr()).map_err(|e| e.to_string())?;
    for s in studies.iter_mut() {
        let reply = client
            .solve(&s.deck, None, false)
            .map_err(|e| format!("{}: {e}", s.name))?;
        if reply.cache_hit {
            return Err(format!("{}: a fresh server reported a hit", s.name));
        }
        s.key = reply.key;
        s.dof = reply.dof;
    }
    Ok(server)
}

/// The request line `ServeClient::solve` writes for these arguments.
fn request_line(deck: &str, scenarios: &[Scenario], leakage: bool) -> String {
    let mut pairs = vec![
        ("op", Json::str("solve")),
        ("deck", Json::str(deck)),
        (
            "scenarios",
            Json::Arr(scenarios.iter().map(scenario_json).collect()),
        ),
    ];
    if leakage {
        pairs.push(("include_leakage", Json::Bool(true)));
    }
    Json::obj(pairs).to_line()
}

/// Shape checks every reply must pass.
fn check_reply(
    s: &Served,
    scenarios: &[Scenario],
    leakage: bool,
    reply: &SolveReply,
) -> Result<(), String> {
    if !reply.cache_hit {
        return Err(format!("{}: request missed the cache", s.name));
    }
    if reply.key != s.key || reply.dof != s.dof {
        return Err(format!("{}: reply names another study", s.name));
    }
    if reply.solutions.len() != scenarios.len() {
        return Err(format!("{}: wrong number of answers", s.name));
    }
    for (a, sc) in reply.solutions.iter().zip(scenarios) {
        let leak_ok = match &a.leakage {
            Some(l) => leakage && l.len() == s.dof,
            None => !leakage,
        };
        if a.scenario != *sc || !leak_ok || !(a.gpr > 0.0 && a.equivalent_resistance > 0.0) {
            return Err(format!("{}: malformed answer", s.name));
        }
    }
    Ok(())
}

/// The client's `BufWriter` capacity: a request line longer than this
/// leaves the client in two writes.
const CLIENT_BUFFER: usize = 8 * 1024;

/// One traced served request, in seconds.
struct Split {
    /// Client-observed round trip.
    round_trip: f64,
    /// The same line through `Service::handle_line*` in-process.
    service: f64,
    /// Σ of the stage-by-stage replay.
    stages: f64,
    /// Whether the request line exceeded [`CLIENT_BUFFER`].
    over_buffer: bool,
}

/// Sets the service/socket split of the traced requests: socket time is
/// the round trip minus the service time, split at the client's write
/// buffer, and `attribution.coverage` is the share of the round trip
/// that socket time plus the replayed stages account for.
fn socket_layers(out: &mut Outcome, splits: &[Split]) {
    let service: Vec<f64> = splits.iter().map(|s| s.service).collect();
    let socket = |keep: &dyn Fn(&Split) -> bool| {
        let v: Vec<f64> = splits
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.round_trip - s.service)
            .collect();
        1e3 * median(&v)
    };
    out.layer("service.ms", 1e3 * median(&service));
    out.layer("socket.ms", socket(&|_| true));
    out.layer("socket.ms_over_8k", socket(&|s| s.over_buffer));
    out.layer("socket.ms_under_8k", socket(&|s| !s.over_buffer));
    let coverage: Vec<f64> = splits
        .iter()
        .map(|s| (s.round_trip - s.service + s.stages) / s.round_trip)
        .collect();
    out.layer("attribution.coverage", median(&coverage));
}

/// A kept reply for the end-of-run bit-identity check.
struct Sample {
    study: usize,
    scenarios: Vec<Scenario>,
    reply: SolveReply,
}

/// What one connection measured.
#[derive(Default)]
struct Connection {
    latency_s: Vec<f64>,
    traced_s: Vec<f64>,
    verdicts: Vec<Result<(), String>>,
    samples: Vec<Sample>,
    hits: usize,
    /// Requests whose line exceeded [`CLIENT_BUFFER`].
    over_buffer: usize,
    pcg_iterations: Vec<f64>,
    splits: Vec<Split>,
    /// Per traced request: (scenarios, dof, whether the study is direct).
    solved: Vec<(usize, usize, bool)>,
    tracer: Option<Tracer>,
    wall_s: f64,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::new("request", "requests", THREADS);
    let mut served = studies(args.seed)?;

    let mut server = None;
    for _ in 0..SETUP_REPS {
        // The previous server stops before the next one is timed.
        drop(server.take());
        let t = Instant::now();
        server = Some(set_up(&mut served)?);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one setup ran");
    let service = Arc::clone(server.service());
    let addr = server.addr();
    let weights: Vec<f64> = served.iter().map(|s| s.weight).collect();

    let origin = Instant::now();
    let deadline = Duration::from_secs_f64(args.seconds);
    let connections: Vec<Connection> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|c| {
                let served = &served;
                let weights = &weights;
                let service = &service;
                scope.spawn(move || {
                    connection(c, args, served, weights, service, addr, origin, deadline)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    out.loop_s = connections.iter().map(|c| c.wall_s).fold(0.0f64, f64::max);
    out.peak_rss_mb = crate::peak_rss_mb();

    let mut samples = Vec::new();
    let mut tracer = Tracer::new(origin);
    let mut hits = 0;
    let mut over_buffer = 0;
    let mut pcg_iterations = Vec::new();
    let mut splits = Vec::new();
    let mut solved = Vec::new();
    let mut traced_s = Vec::new();
    for c in connections {
        out.op_s.extend(c.latency_s);
        traced_s.extend(c.traced_s);
        for v in c.verdicts {
            out.check(v);
        }
        samples.extend(c.samples);
        hits += c.hits;
        over_buffer += c.over_buffer;
        pcg_iterations.extend(c.pcg_iterations);
        splits.extend(c.splits);
        solved.extend(c.solved);
        if let Some(t) = c.tracer {
            tracer.merge(t);
        }
    }
    let requests = out.op_s.len() + traced_s.len();
    let over_8k_share = over_buffer as f64 / requests.max(1) as f64;
    out.notes
        .push(("request_over_8k_share".into(), over_8k_share, "ratio"));

    // Bit identity of the sampled replies with direct studies built
    // straight from the decks, outside the server and its cache.
    let opts = solve_options();
    for (i, s) in served.iter().enumerate() {
        let mine: Vec<&Sample> = samples.iter().filter(|x| x.study == i).collect();
        if mine.is_empty() {
            continue;
        }
        let study = direct_study(&s.deck, opts)?;
        for sample in mine {
            out.check(compare(s, &study, sample));
        }
    }

    if args.trace {
        let mut client = ServeClient::connect(addr).map_err(|e| e.to_string())?;
        let mut pings = Vec::new();
        for _ in 0..200 {
            let t = Instant::now();
            client.ping().map_err(|e| e.to_string())?;
            pings.push(t.elapsed().as_secs_f64());
        }
        out.layer("socket.ping_us", 1e6 * median(&pings));
        let stats = client.stats().map_err(|e| e.to_string())?;
        let evictions = stats
            .get("cache")
            .and_then(|c| c.get("evictions"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        out.layer("cache.hit_ratio", hits as f64 / requests.max(1) as f64);
        out.layer("request.over_8k_share", over_8k_share);
        factor_layers(&mut out, &service, &served)?;
        layers(&mut out, &tracer, &splits, &solved, &pcg_iterations);
        out.layer(
            "trace.overhead_ms",
            1e3 * (median(&traced_s) - median(&out.op_s)),
        );
        // Per-request self times come from the requests alone, before the
        // edit probe adds its own spans.
        out.self_times(&tracer, traced_s.len());
        let probe_evictions = edit_probe(&mut out, &mut tracer, args.seed, EDIT_PROBE)?;
        out.layer("cache.evictions", evictions + probe_evictions as f64);
        out.tracer = Some(tracer);
    }
    drop(service);
    server.shutdown();
    Ok(out)
}

/// One closed-loop connection.
#[allow(clippy::too_many_arguments)]
fn connection(
    c: usize,
    args: &Args,
    served: &[Served],
    weights: &[f64],
    service: &Service,
    addr: std::net::SocketAddr,
    origin: Instant,
    deadline: Duration,
) -> Result<Connection, String> {
    let mut rng = Rng::new(args.seed, 100 + c as u64);
    let mut client = ServeClient::connect(addr).map_err(|e| e.to_string())?;
    let mut conn = Connection {
        tracer: args.trace.then(|| Tracer::new(origin)),
        ..Default::default()
    };
    let mut i = 0usize;
    while origin.elapsed() < deadline || i < 2 {
        let pick = rng.unit();
        let mut acc = 0.0;
        let which = weights
            .iter()
            .position(|w| {
                acc += w;
                pick < acc
            })
            .unwrap_or(weights.len() - 1);
        let s = &served[which];
        let scenarios: Vec<Scenario> = (0..rng.int(1, 8))
            .map(|_| decks::scenario(&mut rng))
            .collect();
        let leakage = rng.unit() < LEAKAGE_SHARE;
        let traced = conn.tracer.is_some() && i.is_multiple_of(2);
        let request = ((c as u64) << 32) | i as u64;
        let line = request_line(&s.deck, &scenarios, leakage);
        let over_buffer = line.len() + 1 > CLIENT_BUFFER;

        let t0 = Instant::now();
        let reply = client.solve(&s.deck, Some(&scenarios), leakage);
        let t1 = Instant::now();
        let rt = (t1 - t0).as_secs_f64();
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                conn.verdicts.push(Err(format!("{}: {e}", s.name)));
                i += 1;
                continue;
            }
        };
        conn.verdicts
            .push(check_reply(s, &scenarios, leakage, &reply));
        conn.hits += usize::from(reply.cache_hit);
        conn.over_buffer += usize::from(over_buffer);
        // Direct engines report 0 iterations.
        conn.pcg_iterations.extend(
            reply
                .solutions
                .iter()
                .filter(|a| a.solver_iterations > 0)
                .map(|a| a.solver_iterations as f64),
        );
        if traced {
            conn.traced_s.push(rt);
            let tr = conn
                .tracer
                .as_mut()
                .expect("traced connections own a tracer");
            let (service_s, layers_s, direct) = replay(tr, service, &line, request, t0, t1)?;
            conn.splits.push(Split {
                round_trip: rt,
                service: service_s,
                stages: layers_s,
                over_buffer,
            });
            conn.solved.push((scenarios.len(), s.dof, direct));
        } else {
            conn.latency_s.push(rt);
        }
        if i.is_multiple_of(SAMPLE_EVERY) {
            conn.samples.push(Sample {
                study: which,
                scenarios,
                reply,
            });
        }
        i += 1;
    }
    conn.wall_s = origin.elapsed().as_secs_f64();
    Ok(conn)
}

/// Replays a request line on the server's own service — once whole,
/// once stage by stage — and places both inside its round-trip span.
/// Returns (service seconds, Σ stage seconds, whether the study is
/// direct).
fn replay(
    tr: &mut Tracer,
    service: &Service,
    line: &str,
    request: u64,
    t0: Instant,
    t1: Instant,
) -> Result<(f64, f64, bool), String> {
    let t = Instant::now();
    let reply = service.handle_line(line);
    let service_s = t.elapsed();
    tr.count("json.bytes_out", (reply.len() + 1) as f64);
    tr.count("replies", 1.0);

    let mut stages = Vec::with_capacity(6);
    let parsed = stage(&mut stages, "serve.json", || parse_request(line));
    let Ok(Request::Solve {
        deck,
        scenarios,
        include_leakage,
    }) = parsed
    else {
        return Err("replayed line is not a solve request".into());
    };
    let scenarios = scenarios.unwrap_or_default();
    let case = stage(&mut stages, "cad.input", || parse_case(&deck))
        .map_err(|e| format!("replayed deck does not parse: {e}"))?;
    let opts = solve_options();
    let key = stage(&mut stages, "serve.key", || StudyKey::of(&case, &opts));
    let effective = SolveOptions {
        formulation: case.formulation,
        solver: case.solver,
        ..opts
    };
    let (study, outcome) = stage(&mut stages, "serve.cache", || {
        service
            .cache()
            .get_or_prepare(key, || build_study(&case, effective))
    })
    .map_err(|e| format!("replayed lookup failed: {e}"))?;
    if outcome != CacheOutcome::Hit {
        return Err("replayed lookup missed the cache".into());
    }
    let direct = case.solver != SolverChoice::ConjugateGradient;
    let layer = if direct { "core.study" } else { "numeric.pcg" };
    let solutions = stage(&mut stages, layer, || study.solve_batch(&scenarios))
        .map_err(|e| format!("replayed solve failed: {e}"))?;
    stage(&mut stages, "serve.json", || {
        let body = Json::Arr(
            solutions
                .iter()
                .map(|s| solution_json(s, include_leakage))
                .collect(),
        );
        std::hint::black_box(body.to_line())
    });

    tr.round_trip(request, t0, t1, service_s, &stages);
    let layers_s = stages.iter().map(|(_, d)| d.as_secs_f64()).sum();
    Ok((service_s.as_secs_f64(), layers_s, direct))
}

/// A study prepared straight from a deck, outside the server.
fn direct_study(deck: &str, opts: SolveOptions) -> Result<Study, String> {
    let case = parse_case(deck).map_err(|e| e.to_string())?;
    let opts = SolveOptions {
        formulation: case.formulation,
        solver: case.solver,
        ..opts
    };
    let mesh = Mesher::new(case.mesh_options).mesh(&case.network);
    GroundingSystem::new(mesh, &case.soil, opts)
        .prepare()
        .map_err(|e| e.to_string())
}

/// Bit-for-bit comparison of a served reply with the direct study.
fn compare(s: &Served, study: &Study, sample: &Sample) -> Result<(), String> {
    let want = study
        .solve_batch(&sample.scenarios)
        .map_err(|e| e.to_string())?;
    let same = sample.reply.solutions.len() == want.len()
        && sample.reply.solutions.iter().zip(&want).all(|(got, w)| {
            got.gpr.to_bits() == w.gpr.to_bits()
                && got.total_current.to_bits() == w.total_current.to_bits()
                && got.equivalent_resistance.to_bits() == w.equivalent_resistance.to_bits()
                && got.solver_iterations == w.solver_iterations
                && got.leakage.as_ref().is_none_or(|l| {
                    l.len() == w.leakage.len()
                        && l.iter()
                            .zip(&w.leakage)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                })
        });
    if same {
        Ok(())
    } else {
        Err(format!(
            "{}: served answer differs from a direct Study::solve",
            s.name
        ))
    }
}

/// Factorization time and rate of the resident direct studies, read
/// from their own profiles.
fn factor_layers(out: &mut Outcome, service: &Service, served: &[Served]) -> Result<(), String> {
    let (mut seconds, mut flops) = (0.0, 0.0);
    for s in served {
        let key = u64::from_str_radix(&s.key, 16).map_err(|e| e.to_string())?;
        let (study, _) = service
            .cache()
            .get_or_prepare(StudyKey(key), || {
                Err(layerbem_serve::RequestError::protocol(
                    "resident study went missing",
                ))
            })
            .map_err(|e| format!("{}: {e}", s.name))?;
        let p = study.profile();
        if p.factorizations > 0 {
            let n = study.dof() as f64;
            seconds += p.factor_seconds;
            flops += n * n * n / 3.0;
        }
    }
    out.layer("factor.s", seconds);
    out.layer("factor.gflops", flops / seconds / 1e9);
    Ok(())
}

/// Layer metrics from the traced requests' spans and splits.
fn layers(
    out: &mut Outcome,
    tr: &Tracer,
    splits: &[Split],
    solved: &[(usize, usize, bool)],
    pcg_iterations: &[f64],
) {
    let us = |name: &str| 1e6 * median(&tr.durations(name));
    out.layer("parse.us_per_deck", us("cad.input"));
    out.layer("key.us", us("serve.key"));
    out.layer("cache.lookup_us", us("serve.cache"));
    // `serve.json` spans alternate decode, encode per request.
    let json = tr.durations("serve.json");
    let decode: Vec<f64> = json.iter().step_by(2).copied().collect();
    let encode: Vec<f64> = json.iter().skip(1).step_by(2).copied().collect();
    out.layer("json.decode_us", 1e6 * median(&decode));
    out.layer("json.encode_us", 1e6 * median(&encode));
    out.layer(
        "json.bytes_out",
        tr.total("json.bytes_out") / tr.total("replies").max(1.0),
    );

    socket_layers(out, splits);

    let direct_s: f64 = tr.durations("core.study").iter().sum();
    let (mut scenarios, mut bytes) = (0.0, 0.0);
    let mut pcg_solves = 0.0;
    for &(k, n, direct) in solved {
        if direct {
            scenarios += k as f64;
            // Two sweeps (forward, backward) of the packed factor.
            bytes += k as f64 * 8.0 * (n * (n + 1)) as f64;
        } else {
            pcg_solves += k as f64;
        }
    }
    out.layer("solve.ms_per_scenario", 1e3 * direct_s / scenarios.max(1.0));
    out.layer("solve.gbytes_per_s", bytes / direct_s / 1e9);
    out.layer(
        "pcg.ms_per_solve",
        1e3 * tr.durations("numeric.pcg").iter().sum::<f64>() / pcg_solves.max(1.0),
    );
    out.layer(
        "pcg.iterations",
        pcg_iterations.iter().sum::<f64>() / pcg_iterations.len().max(1) as f64,
    );
}
