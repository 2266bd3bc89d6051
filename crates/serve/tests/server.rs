//! Socket-level integration tests of the study server.
//!
//! These exercise the full stack — TCP accept loop, line framing, JSON
//! protocol, keyed cache, and the solve core — with real clients on real
//! sockets, checking the three promises the server makes: concurrent
//! clients asking the same question pay exactly one prepare, served
//! answers are bit-identical to a direct [`Study`] solve, and the
//! residency budget evicts least-recently-used studies without losing
//! correctness.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use layerbem_cad::parse_case;
use layerbem_core::{Scenario, SolveOptions, SolverChoice};
use layerbem_serve::protocol::scenario_json;
use layerbem_serve::{build_study, spawn, Json, ServeClient, ServerConfig};

/// A small but non-trivial deck: a 3×3-cell grid in two-layer soil.
const GRID_DECK: &str = "title integration grid\n\
     soil two-layer 0.016 0.012 2.0\n\
     grid rect 0 0 12 12 3 3 0.6 0.008\n\
     solver cholesky\n\
     gpr 5000\n";

/// A second, distinct deck for eviction tests.
const ROD_DECK: &str = "soil uniform 0.016\nrod 0 0 0.5 3 0.01\nsolver cholesky\n";

fn default_server() -> ServerConfig {
    ServerConfig {
        workers: 8,
        ..ServerConfig::default()
    }
}

/// N clients, one deck, one barrier: the cache must single-flight the
/// prepare (1 miss, N−1 hits) and every client must receive answers
/// bit-identical to solving the same prepared [`Study`] directly.
#[test]
fn concurrent_clients_share_one_prepare_and_match_direct_solves() {
    let handle = spawn(default_server()).expect("spawn server");
    let addr = handle.addr();

    let scenarios = [Scenario::gpr(5000.0), Scenario::fault_current(25.0)];

    // The reference: the same case prepared directly, bypassing the
    // server entirely. The server applies the deck's `solver` keyword on
    // top of its own defaults, so mirror that here.
    let case = parse_case(GRID_DECK).expect("deck parses");
    let opts = SolveOptions {
        formulation: case.formulation,
        solver: case.solver,
        ..SolveOptions::default()
    };
    assert_eq!(case.solver, SolverChoice::Cholesky);
    let study = build_study(&case, opts).expect("direct prepare");
    let direct: Vec<_> = scenarios
        .iter()
        .map(|s| study.solve(s).expect("direct solve"))
        .collect();

    const CLIENTS: usize = 6;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let replies: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                barrier.wait();
                client
                    .solve(GRID_DECK, Some(&scenarios), true)
                    .expect("served solve")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    // Exactly one prepare across all clients; cache_hit in each reply is
    // consistent with the single-flight outcome.
    let misses = replies.iter().filter(|r| !r.cache_hit).count();
    assert_eq!(misses, 1, "single-flight must admit exactly one prepare");

    for reply in &replies {
        assert_eq!(reply.dof, study.dof());
        assert_eq!(reply.solutions.len(), direct.len());
        for (served, want) in reply.solutions.iter().zip(&direct) {
            // Bit-identical across the text protocol: the wire format
            // prints f64 shortest-round-trip, so parsing it back must
            // reproduce the exact bits of the direct solve.
            assert_eq!(served.gpr.to_bits(), want.gpr.to_bits());
            assert_eq!(served.total_current.to_bits(), want.total_current.to_bits());
            assert_eq!(
                served.equivalent_resistance.to_bits(),
                want.equivalent_resistance.to_bits()
            );
            assert_eq!(served.solver_iterations, want.solver_iterations);
            let leakage = served.leakage.as_ref().expect("leakage requested");
            assert_eq!(leakage.len(), want.leakage.len());
            for (a, b) in leakage.iter().zip(&want.leakage) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    // The server's own ledger agrees.
    let mut client = ServeClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(1.0));
    assert_eq!(
        cache.get("hits").and_then(Json::as_f64),
        Some((CLIENTS - 1) as f64)
    );
    assert_eq!(
        cache.get("resident_studies").and_then(Json::as_f64),
        Some(1.0)
    );

    handle.shutdown();
}

/// A one-byte residency budget keeps at most the just-inserted study, so
/// alternating between two decks evicts on every switch and re-requesting
/// the first deck pays a fresh prepare — the cache never serves a stale
/// or missing entry, it just re-prepares.
#[test]
fn lru_eviction_under_budget_forces_reprepare() {
    let handle = spawn(ServerConfig {
        max_resident_bytes: 1,
        ..default_server()
    })
    .expect("spawn server");

    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    let first = client.solve(GRID_DECK, None, false).expect("solve A");
    assert!(!first.cache_hit);
    let other = client.solve(ROD_DECK, None, false).expect("solve B");
    assert!(!other.cache_hit, "different deck is its own cache key");
    let again = client.solve(GRID_DECK, None, false).expect("solve A again");
    assert!(
        !again.cache_hit,
        "budget evicted the first study, so this must re-prepare"
    );
    assert_eq!(again.key, first.key, "same deck, same key");

    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(3.0));
    assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(0.0));
    assert!(
        cache.get("evictions").and_then(Json::as_f64) >= Some(2.0),
        "each switch past the budget evicts the previous resident"
    );
    assert_eq!(
        cache.get("resident_studies").and_then(Json::as_f64),
        Some(1.0),
        "only the just-inserted study survives a one-byte budget"
    );

    // The answers themselves are unaffected by eviction.
    assert_eq!(
        first.solutions[0].gpr.to_bits(),
        again.solutions[0].gpr.to_bits()
    );

    handle.shutdown();
}

/// An unlimited budget keeps both studies resident and both hot.
#[test]
fn unlimited_budget_keeps_every_study_hot() {
    let handle = spawn(default_server()).expect("spawn server");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    assert!(!client.solve(GRID_DECK, None, false).expect("A").cache_hit);
    assert!(!client.solve(ROD_DECK, None, false).expect("B").cache_hit);
    assert!(client.solve(GRID_DECK, None, false).expect("A'").cache_hit);
    assert!(client.solve(ROD_DECK, None, false).expect("B'").cache_hit);
    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(
        cache.get("resident_studies").and_then(Json::as_f64),
        Some(2.0)
    );
    assert_eq!(cache.get("evictions").and_then(Json::as_f64), Some(0.0));
    handle.shutdown();
}

/// A non-finite scenario drive smuggled in as `1e999` (which our lenient
/// number parser reads as +∞) is rejected with a typed `solve` error over
/// the wire — not a panic, not a NaN answer — and the connection stays
/// usable afterwards.
#[test]
fn non_finite_drive_is_a_typed_solve_error_over_the_wire() {
    let handle = spawn(default_server()).expect("spawn server");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let deck_json = "soil uniform 0.016\\nrod 0 0 0.5 3 0.01\\nsolver cholesky\\n";
    let line = format!(
        "{{\"op\":\"solve\",\"deck\":\"{deck_json}\",\"scenarios\":[{{\"kind\":\"gpr\",\"value\":1e999}}]}}\n"
    );
    stream.write_all(line.as_bytes()).expect("send");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    let v = Json::parse(&reply).expect("reply is JSON");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    let error = v.get("error").expect("error object");
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("solve"));

    // The connection survives the rejected request.
    stream.write_all(b"{\"op\":\"ping\"}\n").expect("ping");
    let mut pong = String::new();
    reader.read_line(&mut pong).expect("pong");
    let v = Json::parse(&pong).expect("pong is JSON");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));

    handle.shutdown();
}

/// Garbage bytes on the socket get a typed `protocol` error line, and the
/// server keeps serving.
#[test]
fn garbage_lines_get_protocol_errors_not_disconnects() {
    let handle = spawn(default_server()).expect("spawn server");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for junk in ["not json at all\n", "[1,2,3]\n", "{\"op\":\"warp\"}\n"] {
        stream.write_all(junk.as_bytes()).expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        let v = Json::parse(&reply).expect("reply is JSON");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        let kind = v
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .map(str::to_string);
        assert_eq!(kind.as_deref(), Some("protocol"));
    }
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    client.ping().expect("still serving");
    handle.shutdown();
}

/// A 10×10-cell grid padded past 8 KiB with `#` comment lines, so the
/// request line is larger than the default 8 KiB `BufWriter` capacity.
fn padded_grid_deck() -> String {
    let mut deck = String::from(
        "soil two-layer 0.016 0.012 2.0\n\
         grid rect 0 0 30 30 10 10 0.6 0.008\n\
         solver cholesky\n",
    );
    while deck.len() <= 9 * 1024 {
        deck.push_str("# padding the deck past one 8 KiB buffer: comments are ignored\n");
    }
    deck
}

/// Scenarios whose leakage arrays push the reply past 8 KiB too.
const PADDED_SCENARIOS: [Scenario; 4] = [
    Scenario::Gpr { volts: 1_000.0 },
    Scenario::Gpr { volts: 5_000.0 },
    Scenario::FaultCurrent { amps: 25.0 },
    Scenario::FaultCurrent { amps: 3_000.0 },
];

/// The solve request `ServeClient::solve(deck, PADDED_SCENARIOS, true)`
/// sends.
fn padded_request(deck: &str) -> Json {
    let scenarios = PADDED_SCENARIOS.iter().map(scenario_json).collect();
    Json::obj(vec![
        ("op", Json::str("solve")),
        ("deck", Json::str(deck)),
        ("scenarios", Json::Arr(scenarios)),
        ("include_leakage", Json::Bool(true)),
    ])
}

/// The 50th percentile of `samples` (seconds), in milliseconds.
fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    1e3 * samples[samples.len() / 2]
}

/// Half of the ~40 ms delayed-ACK timer: a round trip that waits on
/// Nagle's algorithm for a peer's delayed ACK cannot come in under it.
const STALL_FREE_MS: f64 = 20.0;

/// Cached round trips with both the request and the reply over 8 KiB
/// answer well under the delayed-ACK timer: neither end lets a message's
/// tail segment wait for the peer's ACK.
#[test]
fn large_cached_round_trips_do_not_stall_on_delayed_acks() {
    let handle = spawn(default_server()).expect("spawn server");
    let deck = padded_grid_deck();
    let request = padded_request(&deck);
    assert!(request.to_line().len() > 8 * 1024);
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    // The cold request prepares the study; the reply re-serializes to
    // the exact line the server sent.
    let cold = client.request(&request).expect("cold solve");
    assert_eq!(cold.get("cache_hit").and_then(Json::as_bool), Some(false));
    assert!(cold.to_line().len() > 8 * 1024, "reply must exceed 8 KiB");

    let mut times = Vec::new();
    for _ in 0..16 {
        let t = Instant::now();
        let reply = client
            .solve(&deck, Some(&PADDED_SCENARIOS), true)
            .expect("cached solve");
        times.push(t.elapsed().as_secs_f64());
        assert!(reply.cache_hit);
    }
    let p50 = median_ms(times);
    assert!(p50 < STALL_FREE_MS, "median round trip {p50:.1} ms");
    handle.shutdown();
}

/// The server-side half on its own: a plain client that leaves Nagle on
/// and sends each request in one `write_all` still gets its over-8 KiB
/// reply without a delayed-ACK stall.
#[test]
fn large_replies_do_not_stall_a_nagle_client() {
    let handle = spawn(default_server()).expect("spawn server");
    let mut line = padded_request(&padded_grid_deck()).to_line();
    line.push('\n');

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut times = Vec::new();
    for i in 0..17 {
        let t = Instant::now();
        stream.write_all(line.as_bytes()).expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        let elapsed = t.elapsed().as_secs_f64();
        assert!(
            reply.len() > 8 * 1024,
            "reply must exceed 8 KiB: {}",
            reply.len()
        );
        let v = Json::parse(&reply).expect("reply is JSON");
        // The first request prepares the study; time the cached ones.
        assert_eq!(v.get("cache_hit").and_then(Json::as_bool), Some(i > 0));
        if i > 0 {
            times.push(elapsed);
        }
    }
    let p50 = median_ms(times);
    assert!(p50 < STALL_FREE_MS, "median round trip {p50:.1} ms");
    handle.shutdown();
}
