//! Allocation counts of the flat CNF layout.
//!
//! A [`sat::CnfFormula`] keeps every clause's literals in one buffer, so
//! producing, decoding or keeping one costs a constant number of heap
//! allocations rather than one per clause. A counting global allocator pins
//! that: decoding a formula allocates the same whatever its size, decoding a
//! stored TCAS template stays under 200 allocations and building a TCAS
//! localizer under 30 000 (one `Vec` per clause cost 2 269 and 37 958).
//!
//! Counts are per thread, so tests running in parallel do not see each
//! other's allocations. A reallocation counts as an allocation.

use bmc::{EncodeConfig, Spec};
use bugassist::{Localizer, LocalizerConfig, PreparedTemplate};
use sat::bytes::{ByteReader, ByteWriter};
use sat::{CnfFormula, Var};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations of the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread may allocate after its locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// The encoding of a formula of `num_clauses` clauses of one to three
/// literals over 50 variables.
fn encoded_formula(num_clauses: usize) -> Vec<u8> {
    let mut cnf = CnfFormula::with_vars(50);
    for i in 0..num_clauses {
        let lit = |k: usize| Var::from_index((i * 7 + k * 13) % 50).lit((i + k) % 2 == 0);
        cnf.add_clause((0..1 + i % 3).map(lit));
    }
    let mut w = ByteWriter::new();
    cnf.encode(&mut w);
    w.into_bytes()
}

#[test]
fn decoding_a_formula_allocates_the_same_whatever_its_size() {
    let counts: Vec<u64> = [10, 10_000]
        .iter()
        .map(|&n| {
            let bytes = encoded_formula(n);
            let (cnf, count) =
                allocations(|| CnfFormula::decode(&mut ByteReader::new(&bytes)).unwrap());
            assert_eq!(cnf.num_clauses(), n);
            count
        })
        .collect();
    assert_eq!(counts[0], counts[1], "10 vs 10 000 clauses: {counts:?}");
    assert!(counts[0] <= 2, "{counts:?}");
}

/// TCAS v1 at the Table 1 options, with the golden output of its first
/// failing vector as specification.
fn tcas_v1() -> (minic::Program, Spec, LocalizerConfig) {
    let version = siemens::tcas_versions().into_iter().next().expect("v1");
    let faulty = version.build(siemens::TCAS_SOURCE);
    let interp = siemens::tcas_interp_config();
    let golden = siemens::tcas_test_vectors(120, 2011)
        .iter()
        .find_map(|input| {
            let golden = siemens::tcas_golden_output(input);
            let outcome = bmc::run_program(&faulty, siemens::TCAS_ENTRY, input, &[], interp);
            (outcome.result != Some(golden) || !outcome.is_ok()).then_some(golden)
        })
        .expect("v1 fails on the pool");
    let config = LocalizerConfig {
        encode: EncodeConfig {
            width: 16,
            unwind: 6,
            max_inline_depth: 8,
            ..EncodeConfig::default()
        },
        max_suspect_sets: 24,
        trusted_lines: siemens::tcas_trusted_lines(),
        ..LocalizerConfig::default()
    };
    (faulty, Spec::ReturnEquals(golden), config)
}

#[test]
fn a_tcas_localizer_is_built_in_under_30_000_allocations() {
    let (program, spec, config) = tcas_v1();
    let (localizer, count) =
        allocations(|| Localizer::new(&program, siemens::TCAS_ENTRY, &spec, &config));
    let template = localizer.expect("encodes").export_prepared().expect("warm");
    assert!(template.hard().num_clauses() > 1000);
    assert!(count < 30_000, "Localizer::new made {count} allocations");
}

#[test]
fn a_stored_tcas_template_decodes_in_under_200_allocations() {
    let (program, spec, config) = tcas_v1();
    let localizer = Localizer::new(&program, siemens::TCAS_ENTRY, &spec, &config).expect("encodes");
    let mut w = ByteWriter::new();
    localizer.export_prepared().expect("warm").encode(&mut w);
    let bytes = w.into_bytes();
    let (template, count) =
        allocations(|| PreparedTemplate::decode(&mut ByteReader::new(&bytes)).unwrap());
    assert!(template.hard().num_clauses() > 1000);
    assert!(
        count < 200,
        "PreparedTemplate::decode made {count} allocations"
    );
}
