//! The programs and failing tests every workload draws from: the TCAS
//! faulty versions of Table 1 and the Siemens analogues of Table 3.
//!
//! Every workload localizes programs parsed from source text, because the
//! cold and service workloads start from text. A structurally mutated
//! version is rendered with the pretty printer, which renumbers lines, so
//! the catalogue's ground truth (injected and trusted lines) is carried
//! across with the line map that `minic::classify_edit` computes between the
//! built and the reparsed program; setup fails if the text changes anything
//! but line numbers.

use bmc::{EncodeConfig, InterpConfig, Spec};
use bugassist::LocalizerConfig;
use minic::ast::Line;
use minic::{classify_edit, segment_program, EditClass, LineMap, Program};
use prng::SplitMix64;
use siemens::{Benchmark, FaultSpec, FaultyVersion};

/// Size of the seeded TCAS test pool (Table 1's default).
pub const TCAS_POOL: usize = 300;

/// CoMSSes enumerated per TCAS verdict (Table 1's configuration).
pub const TCAS_SETS: usize = 24;

/// CoMSSes enumerated per Siemens-analogue verdict (Table 3's).
pub const SIEMENS_SETS: usize = 12;

/// One failing test: the input and the golden output it should produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailingTest {
    /// Entry-function arguments.
    pub input: Vec<i64>,
    /// Output of the correct program on `input`.
    pub golden: i64,
}

/// One faulty program with its ground truth, in the numbering of `text`.
#[derive(Clone, Debug)]
pub struct Case {
    /// Catalogue name (`v1`, `schedule2`, ...).
    pub name: String,
    /// MinC source text of the faulty program.
    pub text: String,
    /// `text`, parsed.
    pub program: Program,
    /// Entry function.
    pub entry: &'static str,
    /// Encoding options of the catalogue entry.
    pub encode: EncodeConfig,
    /// Lines that must never be blamed.
    pub trusted: Vec<Line>,
    /// The injected fault's lines (the paper's Detect# ground truth).
    pub faulty_lines: Vec<Line>,
    /// CoMSSes a full enumeration reports.
    pub full_sets: usize,
    /// Failing tests, in pool order.
    pub failing: Vec<FailingTest>,
}

impl Case {
    /// The localizer configuration for `sets` suspect sets.
    pub fn config(&self, sets: usize) -> LocalizerConfig {
        LocalizerConfig {
            encode: self.encode.clone(),
            max_suspect_sets: sets,
            trusted_lines: self.trusted.clone(),
            ..LocalizerConfig::default()
        }
    }

    /// The specification of a failing test: the golden output.
    pub fn spec(test: &FailingTest) -> Spec {
        Spec::ReturnEquals(test.golden)
    }

    /// Whether a report's blamed lines include the injected fault.
    pub fn detects(&self, report: &bugassist::LocalizationReport) -> bool {
        self.faulty_lines.iter().any(|&l| report.blames_line(l))
    }
}

/// The source text of a faulty version: the patched base text for a
/// textual patch (line layout kept), the pretty-printed program for a
/// structural mutation. Returns the text, its parse and the map from the
/// built program's lines to the text's.
fn render(
    name: &str,
    base: &str,
    fault: &FaultyVersion,
) -> Result<(String, Program, LineMap), String> {
    let built = fault.build(base);
    let text = match &fault.spec {
        FaultSpec::Patch { from, to } => base.replacen(from, to, 1),
        FaultSpec::Mutations(_) => minic::pretty_program(&built),
    };
    let reparsed =
        minic::parse_program(&text).map_err(|e| format!("{name}: text does not parse: {e}"))?;
    let map = match classify_edit(&segment_program(&built), &segment_program(&reparsed)) {
        EditClass::Identical => LineMap::default(),
        EditClass::LineShift(map) => map,
        other => {
            return Err(format!(
                "{name}: text round trip changed the program: {other:?}"
            ))
        }
    };
    Ok((text, reparsed, map))
}

/// Carries lines across a round trip, checking each lands on a statement.
fn map_lines(
    name: &str,
    lines: &[Line],
    map: &LineMap,
    target: &Program,
) -> Result<Vec<Line>, String> {
    let statements = target.statement_lines();
    lines
        .iter()
        .map(|&l| {
            let mapped = map.remap(l);
            if statements.contains(&mapped) {
                Ok(mapped)
            } else {
                Err(format!(
                    "{name}: line {l} has no statement after the round trip"
                ))
            }
        })
        .collect()
}

/// Keeps the tests on which `program` deviates from the golden output or
/// crashes, as `bmc::run_program` executes it.
fn confirm_failing(
    program: &Program,
    entry: &str,
    width: usize,
    tests: impl IntoIterator<Item = FailingTest>,
) -> Vec<FailingTest> {
    let config = InterpConfig {
        width,
        max_steps: 200_000,
    };
    tests
        .into_iter()
        .filter(|t| {
            let outcome = bmc::run_program(program, entry, &t.input, &[], config);
            !outcome.is_ok() || outcome.result != Some(t.golden)
        })
        .collect()
}

/// Fisher-Yates shuffle driven by the workload seed.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

fn tcas_case(version: &FaultyVersion, pool: &[FailingTest]) -> Result<Case, String> {
    let (text, program, map) = render(version.name, siemens::TCAS_SOURCE, version)?;
    let encode = EncodeConfig {
        width: 16,
        unwind: 6,
        max_inline_depth: 8,
        concretize: Vec::new(),
        ..EncodeConfig::default()
    };
    let failing = confirm_failing(&program, siemens::TCAS_ENTRY, 16, pool.iter().cloned());
    Ok(Case {
        name: version.name.to_string(),
        trusted: map_lines(version.name, &siemens::tcas_trusted_lines(), &map, &program)?,
        faulty_lines: map_lines(version.name, &version.faulty_lines, &map, &program)?,
        text,
        program,
        entry: siemens::TCAS_ENTRY,
        encode,
        full_sets: TCAS_SETS,
        failing,
    })
}

/// Every TCAS faulty version that fails on at least one test of the pool
/// generated from `seed`, each with its failing tests in pool order. As in
/// Table 1, a version is localized on its first failing tests; the pool
/// opens with a fixed boundary-value prefix, so the seed mostly changes the
/// pool's random tail (and, in the workloads, the order of the requests).
pub fn tcas_cases(seed: u64) -> Result<Vec<Case>, String> {
    let pool: Vec<FailingTest> = siemens::tcas_test_vectors(TCAS_POOL, seed)
        .into_iter()
        .map(|input| FailingTest {
            golden: siemens::tcas_golden_output(&input),
            input,
        })
        .collect();
    let mut cases = Vec::new();
    for version in siemens::tcas_versions() {
        let case = tcas_case(&version, &pool)?;
        if !case.failing.is_empty() {
            cases.push(case);
        }
    }
    Ok(cases)
}

fn siemens_case(benchmark: &Benchmark) -> Result<Case, String> {
    let (text, program, map) = render(benchmark.name, benchmark.source, &benchmark.fault)?;
    let tests = benchmark.test_inputs.iter().filter_map(|input| {
        benchmark.golden_output(input).map(|golden| FailingTest {
            input: input.clone(),
            golden,
        })
    });
    let failing = confirm_failing(&program, benchmark.entry, benchmark.width, tests);
    if failing.is_empty() {
        return Err(format!("{}: no failing test", benchmark.name));
    }
    Ok(Case {
        name: benchmark.name.to_string(),
        trusted: map_lines(benchmark.name, &benchmark.trusted_lines, &map, &program)?,
        faulty_lines: map_lines(
            benchmark.name,
            &benchmark.fault.faulty_lines,
            &map,
            &program,
        )?,
        text,
        program,
        entry: benchmark.entry,
        encode: EncodeConfig {
            width: benchmark.width,
            unwind: benchmark.unwind,
            max_inline_depth: 16,
            concretize: benchmark.concretize.clone(),
            ..EncodeConfig::default()
        },
        full_sets: SIEMENS_SETS,
        failing,
    })
}

/// The Siemens analogues of the cold workload: `schedule`, `schedule (large
/// input)`, `schedule2` and `print_tokens`. `tot_info` is left out: its
/// encode alone takes about a second and would dominate every pass.
pub fn siemens_cases() -> Result<Vec<Case>, String> {
    [
        siemens::schedule_small(),
        siemens::schedule_large(),
        siemens::schedule2(),
        siemens::printtokens(),
    ]
    .iter()
    .map(siemens_case)
    .collect()
}
