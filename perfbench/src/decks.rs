//! Seeded inputs: case decks in the CAD text format, and the per-workload
//! request streams. The program sees only the text these produce.
//!
//! Geometry comes from the repository's own paper grids and is written
//! out as `conductor` lines with shortest round-trip floats, so a parsed
//! deck holds exactly the library's conductors (checked by
//! [`check_round_trip`]). The seed chooses what a user would vary between
//! runs of the same substation: titles, the GPR line, the scenario
//! stanzas, and the request streams.

use std::fmt::Write as _;

use layerbem_bench::{paper, soils};
use layerbem_cad::parse_case;
use layerbem_core::study::Scenario;
use layerbem_geometry::{grids, ConductorNetwork};
use layerbem_numeric::Xoshiro256StarStar;
use layerbem_soil::SoilModel;

/// Seeded generator: one independent stream per `(seed, stream)` pair.
pub struct Rng(Xoshiro256StarStar);

impl Rng {
    /// Stream `stream` of the run seeded with `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(Xoshiro256StarStar::seeded(
            seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.0.next_f64()
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `lo..=hi`.
    pub fn int(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.0.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// A seeded scenario: a GPR of 1–20 kV or a fault current of 5–40 kA,
/// rounded to whole volts/amps as an operator would type them.
pub fn scenario(rng: &mut Rng) -> Scenario {
    if rng.unit() < 0.5 {
        Scenario::gpr(rng.range(1_000.0, 20_000.0).round())
    } else {
        Scenario::fault_current(rng.range(5_000.0, 40_000.0).round())
    }
}

/// Two seeded scenarios, a fault current first (so the first answer's
/// GPR is computed, not given) and then a GPR. Every deck carries exactly
/// these two, so the seed changes the values but not the work.
pub fn scenario_pair(rng: &mut Rng) -> Vec<Scenario> {
    vec![
        Scenario::fault_current(rng.range(5_000.0, 40_000.0).round()),
        Scenario::gpr(rng.range(1_000.0, 20_000.0).round()),
    ]
}

fn soil_line(soil: &SoilModel) -> String {
    match soil {
        SoilModel::Uniform { conductivity } => format!("soil uniform {conductivity}"),
        SoilModel::TwoLayer {
            upper,
            lower,
            thickness,
        } => format!("soil two-layer {upper} {lower} {thickness}"),
        SoilModel::MultiLayer { .. } => unreachable!("the benchmark decks use 1- or 2-layer soils"),
    }
}

/// What a deck says besides its geometry.
pub struct DeckSpec<'a> {
    pub title: String,
    pub soil: &'a SoilModel,
    pub gpr: f64,
    /// `None` keeps the parser's default (conjugate gradients).
    pub solver: Option<&'static str>,
    /// `None` keeps the mesher's default element length.
    pub max_element_length: Option<f64>,
    pub scenarios: Vec<Scenario>,
}

/// Writes a deck: header, one `conductor` line per conductor of
/// `network`, then `extra` stanzas verbatim.
pub fn write_deck(spec: &DeckSpec, network: &ConductorNetwork, extra: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "title {}", spec.title);
    let _ = writeln!(s, "{}", soil_line(spec.soil));
    let _ = writeln!(s, "gpr {}", spec.gpr);
    if let Some(solver) = spec.solver {
        let _ = writeln!(s, "solver {solver}");
    }
    if let Some(len) = spec.max_element_length {
        let _ = writeln!(s, "max-element-length {len}");
    }
    for c in network.conductors() {
        let (a, b) = (c.axis.a, c.axis.b);
        let _ = writeln!(
            s,
            "conductor {} {} {} {} {} {} {}",
            a.x, a.y, a.z, b.x, b.y, b.z, c.radius
        );
    }
    s.push_str(extra);
    for sc in &spec.scenarios {
        match sc {
            Scenario::Gpr { .. } => {
                let _ = writeln!(s, "scenario gpr {}", sc.drive());
            }
            Scenario::FaultCurrent { .. } => {
                let _ = writeln!(s, "scenario fault-current {}", sc.drive());
            }
        }
    }
    s
}

/// Checks that a deck parses back to exactly `network`'s conductors
/// (bit for bit) — the precondition for comparing served answers with
/// studies built straight from the library grids.
pub fn check_round_trip(deck: &str, network: &ConductorNetwork) -> Result<(), String> {
    let case = parse_case(deck).map_err(|e| format!("generated deck does not parse: {e}"))?;
    let same = case.network.len() == network.len()
        && case
            .network
            .conductors()
            .iter()
            .zip(network.conductors())
            .all(|(p, q)| {
                let bits = |c: &layerbem_geometry::Conductor| {
                    [
                        c.axis.a.x, c.axis.a.y, c.axis.a.z, c.axis.b.x, c.axis.b.y, c.axis.b.z,
                        c.radius,
                    ]
                    .map(f64::to_bits)
                };
                bits(p) == bits(q)
            });
    if same {
        Ok(())
    } else {
        Err("generated deck does not reproduce the library grid bit for bit".into())
    }
}

/// One of the paper's non-homogeneous cases with its published answer.
pub struct PaperCase {
    /// Short label.
    pub name: &'static str,
    /// The deck text.
    pub deck: String,
    /// Published equivalent resistance (Ω).
    pub req: f64,
    /// Published total leakage current at 10 kV GPR (kA).
    pub current_ka: f64,
    /// Relative tolerance `tests/paper_reproduction.rs` pins for the case.
    pub tol: f64,
}

/// The `cad-paper` decks: Barberá two-layer (§5.1) and Balaidos models
/// B and C (Table 5.1), each with the deck's default solver and a seeded
/// title, GPR line and scenario pair.
pub fn paper_cases(seed: u64) -> Vec<PaperCase> {
    let mut rng = Rng::new(seed, 1);
    let barbera = grids::barbera();
    let balaidos = grids::balaidos();
    let table = paper::TABLE_5_1;
    // (name, grid, soil, published (Req, IΓ), tolerance)
    type Row<'a> = (
        &'static str,
        &'a ConductorNetwork,
        SoilModel,
        (f64, f64),
        f64,
    );
    let cases: [Row; 3] = [
        (
            "barbera-two-layer",
            &barbera,
            soils::barbera_two_layer(),
            paper::BARBERA_TWO_LAYER,
            0.07,
        ),
        (
            "balaidos-b",
            &balaidos,
            soils::balaidos_b(),
            (table[1].1, table[1].2),
            0.01,
        ),
        (
            "balaidos-c",
            &balaidos,
            soils::balaidos_c(),
            (table[2].1, table[2].2),
            0.01,
        ),
    ];
    cases
        .into_iter()
        .map(|(name, network, soil, (req, current_ka), tol)| {
            let spec = DeckSpec {
                title: format!("{name} run {}", rng.int(0, 9999)),
                soil: &soil,
                gpr: rng.range(5_000.0, 15_000.0).round(),
                solver: None,
                max_element_length: None,
                scenarios: scenario_pair(&mut rng),
            };
            PaperCase {
                name,
                deck: write_deck(&spec, network, ""),
                req,
                current_ka,
                tol,
            }
        })
        .collect()
}

/// Checks one answered scenario against its paper case: Req within the
/// case's tolerance, and the leakage current scaled to the paper's 10 kV
/// GPR within the same tolerance.
pub fn check_paper_answer(
    case: &PaperCase,
    gpr: f64,
    total_current: f64,
    req: f64,
) -> Result<(), String> {
    let rel = |got: f64, want: f64| (got - want).abs() / want;
    let current_ka = total_current * (10_000.0 / gpr) / 1_000.0;
    // NaN-safe: a NaN answer fails both checks.
    let (req_dev, current_dev) = (rel(req, case.req), rel(current_ka, case.current_ka));
    if req_dev.is_nan() || req_dev >= case.tol {
        return Err(format!(
            "{}: Req {req} outside {} of the paper's {}",
            case.name, case.tol, case.req
        ));
    }
    if current_dev.is_nan() || current_dev >= case.tol {
        return Err(format!(
            "{}: leakage current {current_ka} kA at 10 kV outside {} of the paper's {} kA",
            case.name, case.tol, case.current_ka
        ));
    }
    Ok(())
}
