//! Localize an injected fault in the TCAS collision-avoidance benchmark —
//! the walk-through of Figure 2 in the paper (version "v1": the climb-inhibit
//! bias constant is 300 instead of 100).
//!
//! Run with: `cargo run --example tcas_localization --release`

use bmc::Spec;
use bugassist::{Localizer, LocalizerConfig};
use siemens::{
    tcas_golden_output, tcas_test_vectors, tcas_trusted_lines, tcas_versions, TCAS_ENTRY,
    TCAS_SOURCE,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let version = tcas_versions().into_iter().next().expect("v1 exists");
    println!(
        "TCAS version {}: fault at line {} ({})",
        version.name, version.faulty_lines[0].0, version.error_type
    );
    let faulty = version.build(TCAS_SOURCE);

    // Find failing test vectors by comparing against the golden outputs of
    // the correct program, exactly like the paper does for the Siemens suite.
    let pool = tcas_test_vectors(300, 2011);
    let interp = siemens::tcas_interp_config();
    let failing: Vec<&Vec<i64>> = pool
        .iter()
        .filter(|input| {
            let golden = tcas_golden_output(input);
            let outcome = bmc::run_program(&faulty, TCAS_ENTRY, input, &[], interp);
            outcome.result != Some(golden) || !outcome.is_ok()
        })
        .collect();
    println!("failing test vectors in the pool: {}", failing.len());

    // Localize the first two failing vectors and aggregate the blamed lines.
    let config = LocalizerConfig {
        encode: bmc::EncodeConfig {
            width: 16,
            unwind: 6,
            max_inline_depth: 8,
            concretize: Vec::new(),
            ..bmc::EncodeConfig::default()
        },
        max_suspect_sets: 8,
        trusted_lines: tcas_trusted_lines(),
        ..LocalizerConfig::default()
    };

    for input in failing.iter().take(2) {
        let golden = tcas_golden_output(input);
        let localizer = Localizer::new(&faulty, TCAS_ENTRY, &Spec::ReturnEquals(golden), &config)?;
        let report = localizer.localize(input)?;
        let lines: Vec<u32> = report.suspect_lines.iter().map(|l| l.0).collect();
        println!(
            "input {:?}\n  suspects (lines): {:?}\n  injected fault blamed: {}\n  time: {} ms",
            input,
            lines,
            version.faulty_lines.iter().any(|l| report.blames_line(*l)),
            report.stats.elapsed_ms
        );
    }
    Ok(())
}
