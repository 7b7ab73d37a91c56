//! Randomized tests: the bit-blasted semantics of every operator must agree
//! with native Rust arithmetic on the same fixed width. Seeded PRNG keeps
//! every run deterministic.

use bitblast::{BitVec, Encoder};
use prng::SplitMix64;
use sat::{SatResult, Solver};

const W: usize = 8;

fn eval_binop(op: impl Fn(&mut Encoder, &BitVec, &BitVec) -> BitVec, a: i64, b: i64) -> i64 {
    let mut enc = Encoder::new(W);
    let av = enc.const_bv(a);
    let bv = enc.const_bv(b);
    let result = op(&mut enc, &av, &bv);
    let out = enc.fresh_bv();
    enc.assert_equal(&result, &out);
    let mut solver = Solver::from_formula(enc.cnf().formula());
    assert_eq!(solver.solve(), SatResult::Sat);
    Encoder::bv_value(&solver.model(), &out)
}

fn operand(rng: &mut SplitMix64) -> i64 {
    rng.gen_range(-128i64..=127)
}

#[test]
fn arithmetic_agrees_with_native() {
    let mut rng = SplitMix64::seed_from_u64(11);
    for _ in 0..64 {
        let (a, b) = (operand(&mut rng), operand(&mut rng));
        assert_eq!(
            eval_binop(Encoder::bv_add, a, b),
            (a as i8).wrapping_add(b as i8) as i64,
            "add {a} {b}"
        );
        assert_eq!(
            eval_binop(Encoder::bv_sub, a, b),
            (a as i8).wrapping_sub(b as i8) as i64,
            "sub {a} {b}"
        );
        assert_eq!(
            eval_binop(Encoder::bv_mul, a, b),
            (a as i8).wrapping_mul(b as i8) as i64,
            "mul {a} {b}"
        );
    }
}

#[test]
fn division_agrees_with_native() {
    let mut rng = SplitMix64::seed_from_u64(13);
    for _ in 0..64 {
        let (a, b) = (operand(&mut rng), operand(&mut rng));
        let expected_div = if b == 0 {
            0
        } else {
            (a as i8).wrapping_div(b as i8) as i64
        };
        let expected_rem = if b == 0 {
            0
        } else {
            (a as i8).wrapping_rem(b as i8) as i64
        };
        assert_eq!(
            eval_binop(Encoder::bv_sdiv, a, b),
            expected_div,
            "div {a} {b}"
        );
        assert_eq!(
            eval_binop(Encoder::bv_srem, a, b),
            expected_rem,
            "rem {a} {b}"
        );
    }
}

#[test]
fn comparisons_agree_with_native() {
    let mut rng = SplitMix64::seed_from_u64(17);
    for _ in 0..64 {
        let (a, b) = (operand(&mut rng), operand(&mut rng));
        let mut enc = Encoder::new(W);
        let av = enc.const_bv(a);
        let bv = enc.const_bv(b);
        let lt = enc.bv_slt(&av, &bv);
        let le = enc.bv_sle(&av, &bv);
        let eq = enc.bv_eq(&av, &bv);
        let outputs = [lt, le, eq];
        let fresh: Vec<_> = (0..3).map(|_| enc.fresh_bit()).collect();
        for (o, f) in outputs.iter().zip(&fresh) {
            let m = enc.iff(*o, *f);
            enc.assert_true(m);
        }
        let mut solver = Solver::from_formula(enc.cnf().formula());
        assert_eq!(solver.solve(), SatResult::Sat);
        let model = solver.model();
        assert_eq!(Encoder::bit_value(&model, fresh[0]), a < b, "lt {a} {b}");
        assert_eq!(Encoder::bit_value(&model, fresh[1]), a <= b, "le {a} {b}");
        assert_eq!(Encoder::bit_value(&model, fresh[2]), a == b, "eq {a} {b}");
    }
}

/// Encodes `op` over two *symbolic* inputs, fixes the inputs to `(a, b)`
/// via assumptions, and reads the output — exercising the encoding the way
/// the localizer does (shared structure, inputs constrained per test).
fn eval_symbolic(op: impl Fn(&mut Encoder, &BitVec, &BitVec) -> BitVec, a: i64, b: i64) -> i64 {
    let mut enc = Encoder::new(W);
    let av = enc.fresh_bv();
    let bv = enc.fresh_bv();
    let result = op(&mut enc, &av, &bv);
    let out = enc.fresh_bv();
    enc.assert_equal(&result, &out);
    let mut solver = Solver::from_formula(enc.cnf().formula());
    let mut assumptions = Vec::new();
    for (bv, value) in [(&av, a), (&bv, b)] {
        for (i, &bit) in bv.bits().iter().enumerate() {
            assumptions.push(bit.apply_sign(value >> i & 1 == 1));
        }
    }
    assert_eq!(solver.solve_assuming(&assumptions), SatResult::Sat);
    Encoder::bv_value(&solver.model(), &out)
}

/// Every gate family, encoded over symbolic inputs (so no constant folds
/// apply) and fixed by assumptions, computes native `i8` semantics across
/// seeded random operand pairs.
#[test]
fn symbolic_encodings_agree_with_native_arithmetic() {
    type BinOp = fn(&mut Encoder, &BitVec, &BitVec) -> BitVec;
    type Native = fn(i8, i8) -> i8;
    let families: &[(&str, BinOp, Native)] = &[
        ("add", Encoder::bv_add, i8::wrapping_add),
        ("sub", Encoder::bv_sub, i8::wrapping_sub),
        ("mul", Encoder::bv_mul, i8::wrapping_mul),
        ("sdiv", Encoder::bv_sdiv, |x, y| {
            if y == 0 {
                0
            } else {
                x.wrapping_div(y)
            }
        }),
        ("srem", Encoder::bv_srem, |x, y| {
            if y == 0 {
                0
            } else {
                x.wrapping_rem(y)
            }
        }),
        ("and", Encoder::bv_and, |x, y| x & y),
        ("or", Encoder::bv_or, |x, y| x | y),
        ("xor", Encoder::bv_xor, |x, y| x ^ y),
        // Shift amounts are unsigned; `width` or more shifts everything out.
        ("shl", Encoder::bv_shl, |x, y| {
            if (y as u8) < 8 {
                x << y
            } else {
                0
            }
        }),
        ("ashr", Encoder::bv_ashr, |x, y| {
            if (y as u8) < 8 {
                x >> y
            } else {
                x >> 7
            }
        }),
        (
            "eq-as-ite",
            |e, x, y| {
                let c = e.bv_eq(x, y);
                e.bv_ite(c, x, y)
            },
            |x, y| if x == y { x } else { y },
        ),
        (
            "slt-mux",
            |e, x, y| {
                let c = e.bv_slt(x, y);
                let d = e.bv_sub(y, x);
                e.bv_ite(c, &d, x)
            },
            |x, y| if x < y { y.wrapping_sub(x) } else { x },
        ),
    ];
    let mut rng = SplitMix64::seed_from_u64(0xD1E7);
    for (name, op, native) in families {
        for _ in 0..12 {
            let (a, b) = (operand(&mut rng), operand(&mut rng));
            let expected = native(a as i8, b as i8) as i64;
            assert_eq!(eval_symbolic(op, a, b), expected, "{name}({a}, {b})");
        }
    }
}

#[test]
fn inverse_relationship_between_add_and_sub() {
    let mut rng = SplitMix64::seed_from_u64(19);
    for _ in 0..64 {
        let (a, b) = (operand(&mut rng), operand(&mut rng));
        // (a + b) - b == a at any width.
        let mut enc = Encoder::new(W);
        let av = enc.const_bv(a);
        let bv = enc.const_bv(b);
        let sum = enc.bv_add(&av, &bv);
        let back = enc.bv_sub(&sum, &bv);
        let eq = enc.bv_eq(&back, &av);
        enc.assert_true(eq);
        let mut solver = Solver::from_formula(enc.cnf().formula());
        assert_eq!(solver.solve(), SatResult::Sat, "{a} {b}");
    }
}
