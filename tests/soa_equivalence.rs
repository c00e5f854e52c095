//! Differential suite: the batched SoA Monte Carlo path is bit-identical
//! to the retained scalar reference path — the core contract of the SoA
//! refactor.
//!
//! Matrix: {L-only, LC} models x {1, 2, 4, 8} threads x sample counts
//! chosen to exercise ragged tails (not divisible by the slab lane width,
//! not divisible by the chunk size, single-sample runs). "Bit-identical"
//! is asserted on the raw bits of every sample, and on the derived
//! statistics (mean / sd / quantiles), which are themselves pinned to a
//! fixed reduction order.

use ssn_lab::core::durable::DurableOptions;
use ssn_lab::core::montecarlo::{
    run_monte_carlo_durable_with_path, McPath, VariationSpec, MC_CHUNK,
};
use ssn_lab::core::parallel::ExecPolicy;
use ssn_lab::core::scenario::SsnScenario;
use ssn_lab::devices::Asdm;
use ssn_lab::numeric::slab::LANE;
use ssn_lab::units::{Farads, Henrys, Seconds, Siemens, Volts};

const THREAD_MATRIX: [usize; 4] = [1, 2, 4, 8];

fn scenario(c: Farads) -> SsnScenario {
    let asdm = Asdm::new(Siemens::from_millis(7.5), 1.25, Volts::new(0.6));
    SsnScenario::from_asdm(asdm, Volts::new(1.8))
        .drivers(8)
        .inductance(Henrys::from_nanos(5.0))
        .capacitance(c)
        .rise_time(Seconds::from_nanos(0.5))
        .build()
        .expect("valid scenario")
}

fn assert_bit_identical(tag: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{tag}: sample counts differ");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{tag}: sample {i} differs: {g:?} vs {w:?}"
        );
    }
}

/// Sample counts with deliberately awkward shapes: a lone sample, a
/// partial lane, a full lane, a chunk plus a sub-lane tail, a chunk plus a
/// non-lane-aligned tail, and a multi-chunk run that is divisible by
/// neither the chunk size nor the lane width.
fn ragged_counts() -> [usize; 7] {
    [
        1,
        LANE - 1,
        LANE,
        MC_CHUNK + 3,
        MC_CHUNK + LANE + 5,
        2 * MC_CHUNK - 1,
        3 * MC_CHUNK + 13,
    ]
}

fn check_model(model: &str, c: Farads) {
    let s = scenario(c);
    let spec = VariationSpec::typical();
    for n in ragged_counts() {
        let (scalar, _, _) = run_monte_carlo_durable_with_path(
            &s,
            &spec,
            n,
            42,
            &ExecPolicy::serial(),
            &DurableOptions::none(),
            McPath::Scalar,
        )
        .expect("scalar reference");
        assert_eq!(scalar.len(), n);
        for threads in THREAD_MATRIX {
            let (batched, stats, _) = run_monte_carlo_durable_with_path(
                &s,
                &spec,
                n,
                42,
                &ExecPolicy::with_threads(threads),
                &DurableOptions::none(),
                McPath::Batched,
            )
            .expect("batched run");
            let tag = format!("{model} n={n} threads={threads}");
            assert_eq!(stats.failed_chunks, 0, "{tag}: no chunk may fail");
            assert_bit_identical(&tag, batched.samples(), scalar.samples());
            // Pinned-order reductions must agree to the last bit too.
            assert_eq!(
                batched.mean().value().to_bits(),
                scalar.mean().value().to_bits(),
                "{tag}: mean"
            );
            assert_eq!(
                batched.std_dev().value().to_bits(),
                scalar.std_dev().value().to_bits(),
                "{tag}: sd"
            );
            for q in [0.05, 0.5, 0.95, 0.99] {
                assert_eq!(
                    batched.quantile(q).value().to_bits(),
                    scalar.quantile(q).value().to_bits(),
                    "{tag}: q{q}"
                );
            }
        }
    }
}

#[test]
fn lc_batched_is_bit_identical_to_scalar_at_every_thread_count() {
    check_model("LC", Farads::from_picos(1.0));
}

#[test]
fn l_only_batched_is_bit_identical_to_scalar_at_every_thread_count() {
    check_model("L-only", Farads::ZERO);
}

/// The scalar path itself is thread-count invariant (the pre-existing
/// determinism contract): scalar at 8 threads equals scalar serial, so
/// the batched-vs-scalar comparison above covers the full 2x4 path/thread
/// matrix by transitivity.
#[test]
fn scalar_path_is_itself_thread_invariant() {
    let s = scenario(Farads::from_picos(1.0));
    let spec = VariationSpec::typical();
    let n = 2 * MC_CHUNK + 7;
    let (serial, _, _) = run_monte_carlo_durable_with_path(
        &s,
        &spec,
        n,
        9,
        &ExecPolicy::serial(),
        &DurableOptions::none(),
        McPath::Scalar,
    )
    .expect("serial");
    for threads in [2, 8] {
        let (par, _, _) = run_monte_carlo_durable_with_path(
            &s,
            &spec,
            n,
            9,
            &ExecPolicy::with_threads(threads),
            &DurableOptions::none(),
            McPath::Scalar,
        )
        .expect("parallel scalar");
        assert_bit_identical(
            &format!("scalar threads={threads}"),
            par.samples(),
            serial.samples(),
        );
    }
}

/// Different seeds still differ on the batched path (the suite must not
/// pass vacuously because everything collapsed to one value).
#[test]
fn batched_path_remains_seed_sensitive() {
    let s = scenario(Farads::from_picos(1.0));
    let spec = VariationSpec::typical();
    let run = |seed| {
        run_monte_carlo_durable_with_path(
            &s,
            &spec,
            200,
            seed,
            &ExecPolicy::serial(),
            &DurableOptions::none(),
            McPath::Batched,
        )
        .expect("run")
        .0
    };
    assert_ne!(run(1).samples(), run(2).samples());
    assert!(
        run(1).std_dev().value() > 0.0,
        "variation must spread samples"
    );
}
