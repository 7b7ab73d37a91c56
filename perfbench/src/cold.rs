//! `cold_first_verdict`: from source text to the first CoMSS. For every
//! program the loop parses the text, builds a `Localizer` and localizes one
//! failing test with one suspect set, paying the prepare step inside
//! `localize`. The front end, encoder, static analysis and `simplify` do
//! most of the work; MAX-SAT runs a single rank.

use crate::catalog::{self, Case, FailingTest};
use crate::report::Measured;
use crate::trace::Tracer;
use bugassist::{Localizer, Suspect};
use std::time::Instant;

/// Latency limit of one cold verdict.
pub const SLO_MS: f64 = 1000.0;

/// Everything setup builds.
#[derive(Debug)]
pub struct State {
    /// Every TCAS version plus the Siemens analogues, with their texts.
    pub cases: Vec<Case>,
    /// The failing test each case is localized on.
    pub tests: Vec<FailingTest>,
}

/// Rank 0 of each case (`None` inside when the report has no suspect), as
/// the first pass found it.
pub type FirstRanks = Vec<Option<Option<Suspect>>>;

/// Builds the program texts and picks each program's first failing test.
pub fn setup(seed: u64) -> Result<State, String> {
    let mut cases = catalog::tcas_cases(seed)?;
    cases.extend(catalog::siemens_cases()?);
    let tests: Vec<FailingTest> = cases.iter().map(|c| c.failing[0].clone()).collect();
    Ok(State { cases, tests })
}

/// One cold verdict: parse, build, (in trace mode, prepare explicitly so
/// the split shows), localize one suspect set. Returns rank 0.
fn first_verdict(
    case: &Case,
    test: &FailingTest,
    tracer: &Tracer,
) -> Result<Option<Suspect>, String> {
    tracer.span("cold.verdict", || {
        let program = tracer
            .span("minic.parse", || minic::parse_program(&case.text))
            .map_err(|e| format!("parse: {e}"))?;
        let localizer = tracer
            .span("core.new", || {
                Localizer::new(&program, case.entry, &Case::spec(test), &case.config(1))
            })
            .map_err(|e| format!("new: {e}"))?;
        if tracer.enabled() {
            tracer.span("core.prepare", || localizer.warm());
        }
        let report = tracer
            .span("core.localize", || localizer.localize(&test.input))
            .map_err(|e| format!("localize: {e}"))?;
        tracer.count("core.maxsat_calls", report.stats.maxsat_calls as f64);
        if !report.complete {
            return Err("incomplete report".to_string());
        }
        Ok(report.suspects.into_iter().next())
    })
}

/// Runs whole passes over every program until `seconds` have passed and
/// the passes hold `min_verdicts` verdicts. Every pass must reproduce the
/// rank 0 recorded in `first` (filled on first sight).
pub fn run(
    state: &State,
    first: &mut FirstRanks,
    seconds: f64,
    min_verdicts: usize,
    tracer: &Tracer,
) -> Measured {
    let mut measured = Measured::default();
    first.resize(state.cases.len(), None);
    let started = Instant::now();
    loop {
        let pass_started = Instant::now();
        for (i, (case, test)) in state.cases.iter().zip(&state.tests).enumerate() {
            let t = Instant::now();
            let result = first_verdict(case, test, tracer);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let ok = match result {
                Err(e) => {
                    measured.mismatches.push(format!("{}: {e}", case.name));
                    false
                }
                Ok(rank0) => match &first[i] {
                    None => {
                        first[i] = Some(rank0);
                        true
                    }
                    Some(prev) if *prev == rank0 => true,
                    Some(_) => {
                        measured
                            .mismatches
                            .push(format!("{}: rank 0 differs between passes", case.name));
                        false
                    }
                },
            };
            measured.record(ms, ok, SLO_MS);
        }
        measured.seconds += pass_started.elapsed().as_secs_f64();
        measured.passes += 1;
        if started.elapsed().as_secs_f64() >= seconds && measured.enough(min_verdicts) {
            return measured;
        }
    }
}

/// After the timed loop: localizes every (program, test) again on a warm
/// localizer with the full suspect-set count. Its rank 0 must equal the
/// cold rank 0, and its blamed lines give the workload's detect rate.
pub fn verify(state: &State, first: &FirstRanks, measured: &mut Measured) {
    for ((case, test), cold) in state.cases.iter().zip(&state.tests).zip(first.iter()) {
        let Some(cold) = cold else { continue };
        let report = Localizer::new(
            &case.program,
            case.entry,
            &Case::spec(test),
            &case.config(case.full_sets),
        )
        .and_then(|localizer| {
            localizer.warm();
            localizer.localize(&test.input)
        });
        match report {
            Err(e) => measured
                .mismatches
                .push(format!("{}: warm reference failed: {e}", case.name)),
            Ok(report) => {
                if report.suspects.first() != cold.as_ref() {
                    measured.mismatches.push(format!(
                        "{}: cold rank 0 {:?} differs from warm rank 0 {:?}",
                        case.name,
                        cold,
                        report.suspects.first()
                    ));
                }
                measured.detect_total += 1;
                if case.detects(&report) {
                    measured.detected += 1;
                }
            }
        }
    }
}
