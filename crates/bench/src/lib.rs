//! # bench — experiment harness for the BugAssist reproduction
//!
//! One function per table/figure of the paper's evaluation (Sec. 6), each
//! returning a structured result whose `Display` implementation prints the
//! same rows the paper reports. The binaries in `src/bin/` are thin wrappers:
//!
//! * `table1` — TCAS localization over every faulty version (Table 1);
//! * `table3` — trace-reduction experiment on the larger programs (Table 3);
//! * `repair` — the strncat off-by-one repair (Sec. 6.3 / Program 2);
//! * `loops` — faulty-loop-iteration localization (Sec. 6.4 / Program 3);
//! * `baseline_compare` — BugAssist vs. backward slice vs. spectrum-based
//!   localization (the comparison sketched in Sec. 2).
//!
//! Pipeline and service speed are measured by the separate `perfbench/`
//! package, not here; the service's behaviour under load (warm vs cold,
//! edit stream, overload, chaos, restart) is asserted by the `service`
//! crate's own tests.

#![warn(missing_docs)]

use baselines::{SpectrumFormula, SpectrumLocalizer};
use bmc::{backward_slice, slice_program, EncodeConfig, InterpConfig, SliceCriterion, Spec};
use bugassist::{
    localize_faulty_iteration, suggest_repairs, Localizer, LocalizerConfig, RepairConfig,
};
use minic::ast::Line;
use siemens::{
    table3_benchmarks, tcas_program, tcas_test_vectors, tcas_trusted_lines, tcas_versions,
    Benchmark, TCAS_ENTRY, TCAS_SOURCE,
};
use std::fmt;
use std::time::Instant;

/// Options controlling how much work the Table 1 harness does. The paper ran
/// all 1608 vectors on all 41 versions; the defaults here keep a full
/// regeneration in the minutes range while preserving the table's shape.
#[derive(Clone, Copy, Debug)]
pub struct Table1Options {
    /// Size of the generated test pool.
    pub pool_size: usize,
    /// RNG seed for the pool.
    pub seed: u64,
    /// Localize at most this many failing vectors per version (0 = all).
    pub max_failing_per_version: usize,
    /// Maximum CoMSSes enumerated per failing vector.
    pub max_suspect_sets: usize,
}

impl Default for Table1Options {
    fn default() -> Table1Options {
        Table1Options {
            pool_size: 300,
            seed: 2011,
            max_failing_per_version: 2,
            max_suspect_sets: 24,
        }
    }
}

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Version name.
    pub version: String,
    /// Number of failing test cases in the pool (the paper's "TC#").
    pub failing_tests: usize,
    /// Number of injected errors ("Error#").
    pub errors: usize,
    /// Number of localized runs that blamed the injected line ("Detect#").
    pub detected: usize,
    /// Number of runs localized (≤ failing_tests when sampling).
    pub localized_runs: usize,
    /// Union of reported suspect lines over the localized runs, as a
    /// percentage of the program's statement lines ("SizeReduc%").
    pub size_reduction_percent: f64,
    /// Mean localization wall-clock time per run, in seconds ("RunTime").
    pub run_time_s: f64,
    /// Fault taxonomy label ("Error Type").
    pub error_type: String,
}

/// The regenerated Table 1.
#[derive(Clone, Debug, Default)]
pub struct Table1 {
    /// Per-version rows.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Fraction of localized runs (over all versions) that found the injected
    /// fault line — the paper reports 95% over 1440 runs.
    pub fn overall_detection_rate(&self) -> f64 {
        let total: usize = self.rows.iter().map(|r| r.localized_runs).sum();
        let detected: usize = self.rows.iter().map(|r| r.detected).sum();
        if total == 0 {
            0.0
        } else {
            detected as f64 / total as f64
        }
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 1: BugAssist on the TCAS task (reproduction)\n\
             {:<8} {:>5} {:>7} {:>8} {:>6} {:>11} {:>9}  ErrorType",
            "Version", "TC#", "Error#", "Detect#", "Runs", "SizeReduc%", "Time(s)"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<8} {:>5} {:>7} {:>8} {:>6} {:>11.1} {:>9.3}  {}",
                row.version,
                row.failing_tests,
                row.errors,
                row.detected,
                row.localized_runs,
                row.size_reduction_percent,
                row.run_time_s,
                row.error_type
            )?;
        }
        writeln!(
            f,
            "overall detection rate: {:.1}% of localized runs",
            100.0 * self.overall_detection_rate()
        )
    }
}

fn tcas_localizer_config(max_suspect_sets: usize) -> LocalizerConfig {
    LocalizerConfig {
        encode: EncodeConfig {
            width: 16,
            unwind: 6,
            max_inline_depth: 8,
            concretize: Vec::new(),
            ..EncodeConfig::default()
        },
        max_suspect_sets,
        trusted_lines: tcas_trusted_lines(),
        ..LocalizerConfig::default()
    }
}

/// Regenerates Table 1: runs the generated TCAS pool against every faulty
/// version, localizes (a sample of) the failing vectors with the golden
/// output as specification, and aggregates detection counts.
pub fn run_table1(options: Table1Options) -> Table1 {
    let pool = tcas_test_vectors(options.pool_size, options.seed);
    let golden: Vec<i64> = pool
        .iter()
        .map(|v| siemens::tcas_golden_output(v))
        .collect();
    let interp = siemens::tcas_interp_config();
    let program_lines = tcas_program().statement_lines().len();

    let mut table = Table1::default();
    for version in tcas_versions() {
        let faulty = version.build(TCAS_SOURCE);
        // Failing vectors: output deviates from golden or the run crashes.
        let failing: Vec<(usize, &Vec<i64>)> = pool
            .iter()
            .enumerate()
            .filter(|(i, input)| {
                let outcome = bmc::run_program(&faulty, TCAS_ENTRY, input, &[], interp);
                !outcome.is_ok() || outcome.result != Some(golden[*i])
            })
            .collect();
        let sample: Vec<&(usize, &Vec<i64>)> = if options.max_failing_per_version == 0 {
            failing.iter().collect()
        } else {
            failing
                .iter()
                .take(options.max_failing_per_version)
                .collect()
        };

        let mut detected = 0usize;
        let mut all_lines: Vec<Line> = Vec::new();
        let mut total_time = 0.0f64;
        for (idx, input) in sample.iter().map(|p| (p.0, p.1)) {
            let spec = Spec::ReturnEquals(golden[idx]);
            let config = tcas_localizer_config(options.max_suspect_sets);
            let started = Instant::now();
            let localizer =
                Localizer::new(&faulty, TCAS_ENTRY, &spec, &config).unwrap_or_else(|e| {
                    panic!("TCAS {} does not encode for {input:?}: {e}", version.name)
                });
            let report = localizer.localize(input).unwrap_or_else(|e| {
                panic!("TCAS {} fails to localize {input:?}: {e}", version.name)
            });
            total_time += started.elapsed().as_secs_f64();
            if version.faulty_lines.iter().any(|l| report.blames_line(*l)) {
                detected += 1;
            }
            all_lines.extend(report.suspect_lines.iter().copied());
        }
        all_lines.sort();
        all_lines.dedup();
        let runs = sample.len();
        table.rows.push(Table1Row {
            version: version.name.to_string(),
            failing_tests: failing.len(),
            errors: version.error_count,
            detected,
            localized_runs: runs,
            size_reduction_percent: 100.0 * all_lines.len() as f64 / program_lines.max(1) as f64,
            run_time_s: if runs == 0 {
                0.0
            } else {
                total_time / runs as f64
            },
            error_type: version.error_type.to_string(),
        });
    }
    table
}

/// One row of Table 3.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Program name.
    pub program: String,
    /// Lines of code of the MinC analogue.
    pub loc: usize,
    /// Number of procedures.
    pub procedures: usize,
    /// Reduction technique label ("S", "C", "DS", …).
    pub reduction: String,
    /// Guarded assignment instances before / after reduction ("assign#").
    pub assignments: (usize, usize),
    /// CNF variables before / after reduction ("var#").
    pub variables: (usize, usize),
    /// CNF clauses before / after reduction ("clause#").
    pub clauses: (usize, usize),
    /// Number of suspect lines reported on the reduced encoding ("Fault#").
    pub faults: usize,
    /// Whether the injected faulty line is among the suspects.
    pub detected: bool,
    /// Localization wall-clock time on the reduced encoding, seconds.
    pub time_s: f64,
}

/// The regenerated Table 3.
#[derive(Clone, Debug, Default)]
pub struct Table3 {
    /// Per-benchmark rows.
    pub rows: Vec<Table3Row>,
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 3: larger benchmarks with trace reduction (reproduction)\n\
             {:<22} {:>5} {:>6} {:>6} {:>17} {:>17} {:>19} {:>7} {:>9} {:>9}",
            "Program",
            "LOC#",
            "Proc#",
            "Reduc",
            "assign# (bef/aft)",
            "var# (bef/aft)",
            "clause# (bef/aft)",
            "Fault#",
            "found",
            "time(s)"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<22} {:>5} {:>6} {:>6} {:>8}/{:<8} {:>8}/{:<8} {:>9}/{:<9} {:>7} {:>9} {:>9.3}",
                row.program,
                row.loc,
                row.procedures,
                row.reduction,
                row.assignments.0,
                row.assignments.1,
                row.variables.0,
                row.variables.1,
                row.clauses.0,
                row.clauses.1,
                row.faults,
                row.detected,
                row.time_s
            )?;
        }
        Ok(())
    }
}

/// Regenerates Table 3: for every larger benchmark, encode the faulty program
/// without any reduction ("Before"), apply the benchmark's trace-reduction
/// technique (slicing and/or concretization), encode again ("After"), then
/// localize one failing test on the reduced encoding.
pub fn run_table3() -> Table3 {
    let mut table = Table3::default();
    for benchmark in table3_benchmarks() {
        if let Some(row) = table3_row(&benchmark) {
            table.rows.push(row);
        }
    }
    table
}

fn table3_row(benchmark: &Benchmark) -> Option<Table3Row> {
    let faulty = benchmark.faulty_program();
    let failing = benchmark.failing_inputs();
    let failing_input = failing.first()?;
    let golden = benchmark.golden_output(failing_input)?;
    let spec = Spec::ReturnEquals(golden);

    // "Before": plain encoding of the full faulty program.
    let base_encode = EncodeConfig {
        width: benchmark.width,
        unwind: benchmark.unwind,
        max_inline_depth: 16,
        concretize: Vec::new(),
        ..EncodeConfig::default()
    };
    let before = bmc::encode_program(&faulty, benchmark.entry, &spec, &base_encode).ok()?;

    // "After": apply the benchmark's reduction (S = slice, C = concretize,
    // D = the failure-inducing input is already minimal in the pool).
    let reduced_program = if benchmark.reduction.contains('S') {
        let slice = backward_slice(&faulty, benchmark.entry, SliceCriterion::ReturnValue);
        slice_program(&faulty, &slice)
    } else {
        faulty.clone()
    };
    let reduced_encode = EncodeConfig {
        concretize: benchmark.concretize.clone(),
        ..base_encode.clone()
    };
    let after =
        bmc::encode_program(&reduced_program, benchmark.entry, &spec, &reduced_encode).ok()?;

    // Localize on the reduced program.
    let config = LocalizerConfig {
        encode: reduced_encode,
        max_suspect_sets: 12,
        trusted_lines: benchmark.trusted_lines.clone(),
        ..LocalizerConfig::default()
    };
    let started = Instant::now();
    let localizer = Localizer::new(&reduced_program, benchmark.entry, &spec, &config).ok()?;
    let report = localizer.localize(failing_input).ok()?;
    let elapsed = started.elapsed().as_secs_f64();

    Some(Table3Row {
        program: benchmark.name.to_string(),
        loc: benchmark.source.lines().count(),
        procedures: benchmark.program().functions.len(),
        reduction: benchmark.reduction.to_string(),
        assignments: (before.stats.assignments, after.stats.assignments),
        variables: (before.stats.variables, after.stats.variables),
        clauses: (before.stats.clauses, after.stats.clauses),
        faults: report.suspect_lines.len(),
        detected: benchmark
            .fault
            .faulty_lines
            .iter()
            .any(|l| report.blames_line(*l)),
        time_s: elapsed,
    })
}

/// Result of the strncat off-by-one repair experiment (Sec. 6.3).
#[derive(Clone, Debug)]
pub struct RepairExperiment {
    /// Suspect lines reported by localization.
    pub suspect_lines: Vec<Line>,
    /// Human-readable descriptions of the validated repairs.
    pub repairs: Vec<String>,
    /// Whether the `SIZE - 1` fix (decrementing the length constant) was
    /// among the validated repairs.
    pub found_size_minus_one: bool,
}

impl fmt::Display for RepairExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "strncat off-by-one repair (Sec. 6.3 / Program 2)")?;
        writeln!(
            f,
            "suspect lines: {:?}",
            self.suspect_lines.iter().map(|l| l.0).collect::<Vec<_>>()
        )?;
        for repair in &self.repairs {
            writeln!(f, "validated repair: {repair}")?;
        }
        writeln!(f, "SIZE-1 fix found: {}", self.found_size_minus_one)
    }
}

/// Runs the strncat repair experiment: library lines hard, off-by-one search
/// at the suspect lines, BMC validation of candidates.
pub fn run_repair_experiment() -> RepairExperiment {
    let benchmark = siemens::strncat_demo();
    let program = benchmark.faulty_program();
    let localizer_config = LocalizerConfig {
        encode: EncodeConfig {
            width: benchmark.width,
            unwind: benchmark.unwind,
            max_inline_depth: 8,
            concretize: Vec::new(),
            ..EncodeConfig::default()
        },
        max_suspect_sets: 6,
        trusted_lines: benchmark.trusted_lines.clone(),
        ..LocalizerConfig::default()
    };
    let localizer = Localizer::new(
        &program,
        benchmark.entry,
        &Spec::Assertions,
        &localizer_config,
    )
    .expect("strncat encodes");
    let report = localizer
        .localize(&benchmark.test_inputs[0])
        .expect("localization succeeds");

    let repair_config = RepairConfig {
        localizer: localizer_config,
        kinds: vec![bugassist::RepairKind::OffByOne],
        validate_with_bmc: true,
        max_repairs: 0,
    };
    let repairs = suggest_repairs(
        &program,
        benchmark.entry,
        &Spec::Assertions,
        &benchmark.test_inputs,
        &repair_config,
    )
    .expect("repair search runs");
    let found_size_minus_one = repairs.iter().any(|r| {
        matches!(
            r.mutation,
            minic::Mutation::BumpConstant { delta: -1, .. }
                | minic::Mutation::SetConstant { value: 14, .. }
        )
    });
    RepairExperiment {
        suspect_lines: report.suspect_lines,
        repairs: repairs.iter().map(|r| r.to_string()).collect(),
        found_size_minus_one,
    }
}

/// Result of the faulty-loop-iteration experiment (Sec. 6.4).
#[derive(Clone, Debug)]
pub struct LoopExperiment {
    /// Suspect lines of the per-instance localization.
    pub suspect_lines: Vec<Line>,
    /// The earliest blamed loop iteration, 1-based, with its line.
    pub first_faulty_iteration: Option<(u32, usize)>,
}

impl fmt::Display for LoopExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "square-root loop debugging (Sec. 6.4 / Program 3)")?;
        writeln!(
            f,
            "suspect lines: {:?}",
            self.suspect_lines.iter().map(|l| l.0).collect::<Vec<_>>()
        )?;
        match self.first_faulty_iteration {
            Some((line, iteration)) => {
                writeln!(
                    f,
                    "first blamed loop instance: line {line}, iteration {iteration}"
                )
            }
            None => writeln!(f, "no loop instance blamed"),
        }
    }
}

/// Runs the square-root loop experiment with weighted per-iteration selectors.
pub fn run_loop_experiment() -> LoopExperiment {
    let benchmark = siemens::squareroot();
    let program = benchmark.program();
    let config = LocalizerConfig {
        encode: EncodeConfig {
            width: benchmark.width,
            unwind: benchmark.unwind,
            max_inline_depth: 8,
            concretize: Vec::new(),
            ..EncodeConfig::default()
        },
        max_suspect_sets: 6,
        ..LocalizerConfig::default()
    };
    let loop_report = localize_faulty_iteration(
        &program,
        benchmark.entry,
        &Spec::Assertions,
        &benchmark.test_inputs[0],
        &config,
    )
    .expect("loop localization runs");
    LoopExperiment {
        suspect_lines: loop_report.report.suspect_lines.clone(),
        first_faulty_iteration: loop_report
            .first_faulty_iteration
            .map(|(line, k)| (line.0, k)),
    }
}

/// Result of the baseline comparison (experiment E8).
#[derive(Clone, Debug)]
pub struct BaselineComparison {
    /// Number of lines BugAssist reports for the motivating example.
    pub bugassist_lines: usize,
    /// Number of lines in the backward slice.
    pub slice_lines: usize,
    /// Tarantula rank of the faulty line over the TCAS v1 pool.
    pub tarantula_rank_v1: Option<usize>,
    /// Whether BugAssist blamed the injected TCAS v1 line.
    pub bugassist_found_v1: bool,
}

impl fmt::Display for BaselineComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "baseline comparison (Sec. 2 claim + related-work baselines)"
        )?;
        writeln!(
            f,
            "motivating example: BugAssist reports {} line(s); backward slice keeps {} line(s)",
            self.bugassist_lines, self.slice_lines
        )?;
        writeln!(
            f,
            "TCAS v1: BugAssist finds the fault: {}; Tarantula rank of the faulty line: {:?}",
            self.bugassist_found_v1, self.tarantula_rank_v1
        )
    }
}

/// Compares BugAssist against the backward-slice and spectrum baselines.
pub fn run_baseline_compare() -> BaselineComparison {
    // Motivating example: BugAssist vs slice.
    let program = minic::parse_program(
        "int Array[3];\nint testme(int index) {\nif (index != 1) {\nindex = 2;\n} else {\nindex = index + 2;\n}\nint i = index;\nreturn Array[i];\n}",
    )
    .expect("motivating example parses");
    let config = LocalizerConfig {
        encode: EncodeConfig {
            width: 8,
            ..EncodeConfig::default()
        },
        ..LocalizerConfig::default()
    };
    let localizer =
        Localizer::new(&program, "testme", &Spec::Assertions, &config).expect("encodes");
    let report = localizer.localize(&[1]).expect("localizes");
    let slice = baselines::slice_localizer(&program, "testme", SliceCriterion::Assertions);

    // TCAS v1: BugAssist vs Tarantula.
    let version = tcas_versions().into_iter().next().expect("v1 exists");
    let faulty = version.build(TCAS_SOURCE);
    let pool = tcas_test_vectors(200, 7);
    let interp: InterpConfig = siemens::tcas_interp_config();
    let mut spectrum = SpectrumLocalizer::new();
    spectrum.add_suite(
        &faulty,
        TCAS_ENTRY,
        &pool,
        |input| Some(siemens::tcas_golden_output(input)),
        interp,
    );
    let tarantula_rank_v1 = spectrum.rank_of(version.faulty_lines[0], SpectrumFormula::Tarantula);

    let failing: Option<Vec<i64>> = pool
        .iter()
        .find(|input| {
            let outcome = bmc::run_program(&faulty, TCAS_ENTRY, input, &[], interp);
            outcome.result != Some(siemens::tcas_golden_output(input))
        })
        .cloned();
    let bugassist_found_v1 = failing
        .and_then(|input| {
            let golden = siemens::tcas_golden_output(&input);
            let config = tcas_localizer_config(24);
            let localizer =
                Localizer::new(&faulty, TCAS_ENTRY, &Spec::ReturnEquals(golden), &config).ok()?;
            let report = localizer.localize(&input).ok()?;
            Some(version.faulty_lines.iter().any(|l| report.blames_line(*l)))
        })
        .unwrap_or(false);

    BaselineComparison {
        bugassist_lines: report.suspect_lines.len(),
        slice_lines: slice.len(),
        tarantula_rank_v1,
        bugassist_found_v1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_display_formats() {
        let table = Table1 {
            rows: vec![Table1Row {
                version: "v1".into(),
                failing_tests: 10,
                errors: 1,
                detected: 9,
                localized_runs: 10,
                size_reduction_percent: 8.5,
                run_time_s: 0.12,
                error_type: "const".into(),
            }],
        };
        let text = table.to_string();
        assert!(text.contains("v1"));
        assert!(text.contains("const"));
        assert!(text.contains("90.0%"));

        let table3 = Table3 {
            rows: vec![Table3Row {
                program: "tot_info".into(),
                loc: 80,
                procedures: 5,
                reduction: "S".into(),
                assignments: (100, 40),
                variables: (2000, 900),
                clauses: (9000, 4000),
                faults: 3,
                detected: true,
                time_s: 1.5,
            }],
        };
        assert!(table3.to_string().contains("tot_info"));
    }

    #[test]
    fn loop_experiment_blames_the_loop() {
        let result = run_loop_experiment();
        assert!(!result.suspect_lines.is_empty());
    }
}
