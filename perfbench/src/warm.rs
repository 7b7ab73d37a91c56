//! `tcas_warm`: the paper's workload. Every TCAS faulty version with failing
//! tests in the seeded pool gets warm localizers in setup; the timed loop
//! calls `Localizer::localize` with the Table 1 configuration (width 16,
//! unwind 6, 24 suspect sets), so nearly all timed work is MAX-SAT/SAT
//! enumeration and the encoding layers do none.

use crate::catalog::{self, Case, FailingTest, TCAS_SETS};
use crate::report::Measured;
use crate::trace::Tracer;
use bugassist::{LocalizationReport, Localizer, Suspect};
use minic::ast::Line;
use std::time::Instant;

/// Failing tests localized per TCAS version in every pass.
pub const TESTS_PER_VERSION: usize = 5;

/// Latency limit of one warm verdict.
pub const SLO_MS: f64 = 250.0;

/// A report without its timing statistics: what must repeat exactly.
pub type Verdict = (Vec<Suspect>, Vec<Line>, bool);

/// The deterministic content of a report.
pub fn verdict(report: &LocalizationReport) -> Verdict {
    (
        report.suspects.clone(),
        report.suspect_lines.clone(),
        report.complete,
    )
}

/// One warm localizer: a TCAS version under one golden-output spec.
#[derive(Debug)]
pub struct Warm {
    /// Index into [`State::cases`].
    pub case: usize,
    /// The prepared, warmed localizer.
    pub localizer: Localizer,
    /// Failing tests whose golden output is this localizer's spec.
    pub tests: Vec<FailingTest>,
}

/// Everything setup builds.
#[derive(Debug)]
pub struct State {
    /// The TCAS catalogue of this seed.
    pub cases: Vec<Case>,
    /// Warm localizers, one per (version, golden output).
    pub warm: Vec<Warm>,
    /// `(warm index, test index)` in seeded pass order.
    pub items: Vec<(usize, usize)>,
}

/// Builds and warms every localizer the timed loop uses.
pub fn setup(seed: u64, tracer: &Tracer) -> Result<State, String> {
    let cases = catalog::tcas_cases(seed)?;
    let mut warm: Vec<Warm> = Vec::new();
    for (ci, case) in cases.iter().enumerate() {
        let chosen = &case.failing[..case.failing.len().min(TESTS_PER_VERSION)];
        let mut goldens: Vec<i64> = chosen.iter().map(|t| t.golden).collect();
        goldens.sort_unstable();
        goldens.dedup();
        for golden in goldens {
            let tests: Vec<FailingTest> = chosen
                .iter()
                .filter(|t| t.golden == golden)
                .cloned()
                .collect();
            let localizer = tracer
                .span("core.new", || {
                    Localizer::new(
                        &case.program,
                        case.entry,
                        &Case::spec(&tests[0]),
                        &case.config(TCAS_SETS),
                    )
                })
                .map_err(|e| format!("{}: {e}", case.name))?;
            tracer.span("core.prepare", || localizer.warm());
            warm.push(Warm {
                case: ci,
                localizer,
                tests,
            });
        }
    }
    let mut items: Vec<(usize, usize)> = warm
        .iter()
        .enumerate()
        .flat_map(|(wi, w)| (0..w.tests.len()).map(move |ti| (wi, ti)))
        .collect();
    catalog::shuffle(&mut items, &mut prng::SplitMix64::seed_from_u64(seed));
    Ok(State { cases, warm, items })
}

/// Localizes every item once per pass, in whole passes, until `seconds`
/// have passed and the passes hold `min_verdicts` verdicts. Every pass must
/// reproduce the first pass's reports exactly.
pub fn run(state: &State, seconds: f64, min_verdicts: usize, tracer: &Tracer) -> Measured {
    let mut measured = Measured::default();
    let mut first: Vec<Option<Verdict>> = vec![None; state.items.len()];
    let started = Instant::now();
    loop {
        let pass_started = Instant::now();
        for (slot, &(wi, ti)) in state.items.iter().enumerate() {
            let warm = &state.warm[wi];
            let case = &state.cases[warm.case];
            let input = &warm.tests[ti].input;
            let t = Instant::now();
            let result = tracer.span("core.localize", || warm.localizer.localize(input));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let report = match result {
                Ok(report) => report,
                Err(e) => {
                    measured.record(ms, false, SLO_MS);
                    measured
                        .mismatches
                        .push(format!("{}: localize failed: {e}", case.name));
                    continue;
                }
            };
            tracer.count("core.maxsat_calls", report.stats.maxsat_calls as f64);
            let this = verdict(&report);
            let same = match &first[slot] {
                None => {
                    first[slot] = Some(this);
                    true
                }
                Some(prev) => *prev == this,
            };
            if !same {
                measured.mismatches.push(format!(
                    "{} {input:?}: report differs between passes",
                    case.name
                ));
            }
            measured.record(ms, same && report.complete, SLO_MS);
            measured.detect_total += 1;
            if case.detects(&report) {
                measured.detected += 1;
            }
        }
        measured.seconds += pass_started.elapsed().as_secs_f64();
        measured.passes += 1;
        if started.elapsed().as_secs_f64() >= seconds && measured.enough(min_verdicts) {
            return measured;
        }
    }
}
