//! The MNA bridge folds identical drivers into one `M = count` instance.
//! These tests hold the folded netlist to the per-driver one: the same
//! bank built from distinct model `Arc`s folds nothing, so it is the
//! reference, and every measured quantity must agree to 1e-9 relative.

use ssn_lab::core::bridge::{measure, DriverBankConfig, SsnMeasurement, Stagger};
use ssn_lab::core::scenario::Rail;
use ssn_lab::devices::process::Process;
use ssn_lab::devices::MosModel;
use ssn_lab::spice::{transient, TranOptions};
use ssn_lab::units::Seconds;
use std::sync::Arc;

const TOL: f64 = 1e-9;

fn rel(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().max(b.abs())
    }
}

/// The same bank with one fresh `Arc` per driver: nothing folds.
fn per_driver(cfg: DriverBankConfig, process: &Process) -> DriverBankConfig {
    let models = (0..cfg.n_drivers())
        .map(|_| -> Arc<dyn MosModel> { Arc::new(process.output_driver()) })
        .collect();
    cfg.with_mixed_models(models)
}

fn assert_agree(label: &str, folded: &SsnMeasurement, spread: &SsnMeasurement) {
    let pairs = [
        ("vn_max", folded.vn_max.value(), spread.vn_max.value()),
        (
            "vn_max_global",
            folded.vn_max_global.value(),
            spread.vn_max_global.value(),
        ),
        (
            "vn_peak_time",
            folded.vn_peak_time.value(),
            spread.vn_peak_time.value(),
        ),
    ];
    for (what, a, b) in pairs {
        assert!(
            rel(a, b) <= TOL,
            "{label}: {what} folded {a:e} vs per-driver {b:e} ({:.1e})",
            rel(a, b)
        );
    }
    match (&folded.victim_glitch, &spread.victim_glitch) {
        (Some(a), Some(b)) => {
            let (a, b) = (a.peak().value, b.peak().value);
            assert!(rel(a, b) <= TOL, "{label}: victim glitch {a:e} vs {b:e}");
        }
        (None, None) => {}
        _ => panic!("{label}: victim present on one side only"),
    }
}

fn check(label: &str, process: &Process, cfg: DriverBankConfig) {
    let folded = measure(&cfg).unwrap_or_else(|e| panic!("{label}: folded: {e}"));
    let spread =
        measure(&per_driver(cfg, process)).unwrap_or_else(|e| panic!("{label}: per-driver: {e}"));
    assert_agree(label, &folded, &spread);
}

/// Every bank size on both rails, with the process rotating through
/// p018/p025/p035 so each size meets one process and each process meets
/// every residue of the size. Power banks above 57 drivers reach the
/// sparse solver tier on the per-driver side.
#[test]
fn folded_banks_match_per_driver_banks_on_both_rails() {
    let processes = [Process::p018(), Process::p025(), Process::p035()];
    for rail in [Rail::Ground, Rail::Power] {
        for n in 1..=64 {
            let process = &processes[n % 3];
            let cfg = DriverBankConfig::from_process(process, n).with_rail(rail);
            check(&format!("{} {rail:?} N={n}", process.name()), process, cfg);
        }
    }
}

#[test]
fn folded_stagger_and_victim_banks_match_per_driver_banks() {
    for process in [Process::p018(), Process::p025(), Process::p035()] {
        for n in [8, 16, 33] {
            let stagger = Stagger {
                groups: 3,
                group_delay: Seconds::from_picos(200.0),
            };
            let cfg = DriverBankConfig::from_process(&process, n)
                .with_stagger(stagger)
                .with_victim();
            check(
                &format!("{} stagger+victim N={n}", process.name()),
                &process,
                cfg,
            );
        }
    }
}

/// Two shared `Arc`s and one distinct: the shared ones fold into two
/// instances, the distinct one stays alone, and the result still equals
/// the bank with every driver distinct.
#[test]
fn partially_shared_mixed_bank_matches_per_driver_bank() {
    let process = Process::p018();
    let narrow: Arc<dyn MosModel> = Arc::new(process.output_driver());
    let wide: Arc<dyn MosModel> = Arc::new(process.output_driver_scaled(2.0));
    let lone: Arc<dyn MosModel> = Arc::new(process.output_driver_scaled(1.5));
    let shared = vec![
        narrow.clone(),
        wide.clone(),
        narrow.clone(),
        lone,
        wide.clone(),
        narrow,
        wide,
    ];
    let distinct: Vec<Arc<dyn MosModel>> = [1.0, 2.0, 1.0, 1.5, 2.0, 1.0, 2.0]
        .into_iter()
        .map(|w| -> Arc<dyn MosModel> { Arc::new(process.output_driver_scaled(w)) })
        .collect();
    for rail in [Rail::Ground, Rail::Power] {
        let base = DriverBankConfig::from_process(&process, 1).with_rail(rail);
        let folded = measure(&base.clone().with_mixed_models(shared.clone())).expect("folded");
        let spread = measure(&base.with_mixed_models(distinct.clone())).expect("per-driver");
        assert_agree(&format!("mixed {rail:?}"), &folded, &spread);
    }
}

/// Regression: a 58-driver per-driver power bank is the first at 64 MNA
/// unknowns, the sparse tier's threshold. Its GMRES used to accept
/// solutions whose residual an ILU(0) pivot on a gmin-only node had
/// hidden, so the transient crawled (hundreds of rejected steps) toward a
/// wrong answer. It must now track the dense tier.
#[test]
fn large_per_driver_power_bank_on_the_sparse_tier_tracks_dense() {
    let process = Process::p018();
    let cfg = per_driver(
        DriverBankConfig::from_process(&process, 58).with_rail(Rail::Power),
        &process,
    );
    let circuit = cfg.build_circuit().expect("builds");
    let opts = TranOptions {
        lte_rel: 0.002,
        lte_abs: 2e-5,
        ..TranOptions::to(0.4e-9).with_ic().with_dt_max(1e-11)
    };
    let sparse = transient(&circuit, opts.clone()).expect("sparse tier");
    let mut dense_opts = opts;
    dense_opts.newton.sparse_dim_threshold = usize::MAX;
    let dense = transient(&circuit, dense_opts).expect("dense tier");
    assert!(
        sparse.len() <= 2 * dense.len(),
        "sparse tier took {} steps, dense {}",
        sparse.len(),
        dense.len()
    );
    let (vs, vd) = (
        sparse.voltage("vp").expect("probe"),
        dense.voltage("vp").expect("probe"),
    );
    for &t in vd.times() {
        let (a, b) = (vs.sample(t), vd.sample(t));
        assert!(
            rel(a, b) <= 1e-6,
            "v(vp) at {t:e} s: sparse {a} vs dense {b}"
        );
    }
}
