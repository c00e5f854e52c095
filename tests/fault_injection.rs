//! Fault-injection matrix for the estimation pipeline's degradation
//! contract: every injected fault class must surface as a typed error or an
//! explicit partial result — never a process abort — and determinism must
//! hold both fault-on (same plan, same results) and fault-off (injection
//! disarmed is bit-identical to injection absent).
//!
//! Faults are injected through the `ssn_core::faults` plane, which every
//! build carries. A [`FaultPlan`] acts only on the run it is armed for —
//! it rides in that run's [`ExecPolicy`] — so every other run, in this
//! test binary or concurrently beside an armed run, sees the clean
//! pipeline.

use ssn_lab::core::design;
use ssn_lab::core::durable::{Durability, DurableOptions, RunBudget};
use ssn_lab::core::faults::{FaultPlan, Faults};
use ssn_lab::core::lcmodel;
use ssn_lab::core::montecarlo::{
    run_monte_carlo_durable, run_monte_carlo_with, VariationSpec, MC_CHUNK,
};
use ssn_lab::core::parallel::ExecPolicy;
use ssn_lab::core::scenario::SsnScenario;
use ssn_lab::core::SsnError;
use ssn_lab::devices::Asdm;
use ssn_lab::numeric::solve::rung;
use ssn_lab::units::{Farads, Henrys, Seconds, Siemens, Volts};

fn scenario(n: usize) -> SsnScenario {
    let asdm = Asdm::new(Siemens::from_millis(7.5), 1.25, Volts::new(0.6));
    SsnScenario::from_asdm(asdm, Volts::new(1.8))
        .drivers(n)
        .inductance(Henrys::from_nanos(5.0))
        .capacitance(Farads::from_picos(1.0))
        .rise_time(Seconds::from_nanos(0.5))
        .build()
        .expect("valid scenario")
}

const SAMPLES: usize = 4 * MC_CHUNK; // four chunks

fn mc(
    plan: Option<FaultPlan>,
    policy: &ExecPolicy,
) -> Result<
    (
        ssn_lab::core::montecarlo::McResult,
        ssn_lab::core::parallel::ExecStats,
    ),
    SsnError,
> {
    let s = scenario(8);
    let spec = VariationSpec::typical();
    let policy = match plan {
        Some(p) => policy.clone().with_faults(Faults::arm(p)),
        None => policy.clone(),
    };
    run_monte_carlo_with(&s, &spec, SAMPLES, 42, &policy)
}

/// Fault class 1: NaN model outputs. Poisoned chunks are dropped and
/// counted; the surviving samples are still finite and ordered.
#[test]
fn nan_model_outputs_degrade_to_a_partial_result() {
    let plan = FaultPlan {
        seed: 5,
        nan: 0.002,
        ..FaultPlan::default()
    };
    let (result, stats) = mc(Some(plan), &ExecPolicy::serial()).expect("partial result");
    assert!(
        stats.failed_chunks > 0 && stats.failed_chunks < 4,
        "want a strict subset of chunks poisoned, got {} of 4",
        stats.failed_chunks
    );
    assert_eq!(result.len(), SAMPLES - stats.failed_chunks * MC_CHUNK);
    assert!(result.samples().iter().all(|v| v.is_finite() && *v >= 0.0));
    // The telemetry line names the loss.
    assert!(stats.to_string().contains("failed chunk"));
}

/// Fault class 2: worker panics. Caught per chunk, never fatal; the run
/// reports which fraction of the work survived.
#[test]
fn worker_panics_are_isolated_per_chunk() {
    let plan = FaultPlan {
        seed: 9,
        chunk_panic: 0.4,
        ..FaultPlan::default()
    };
    for threads in [1usize, 4] {
        let (result, stats) = mc(Some(plan), &ExecPolicy::with_threads(threads))
            .expect("surviving chunks form a partial result");
        assert!(
            stats.failed_chunks > 0 && stats.failed_chunks < 4,
            "threads {threads}: want a strict subset lost, got {} of 4",
            stats.failed_chunks
        );
        assert_eq!(result.len(), SAMPLES - stats.failed_chunks * MC_CHUNK);
    }
}

/// Losing *every* chunk is a typed error naming the first cause, not an
/// empty success.
#[test]
fn losing_every_chunk_is_a_typed_error() {
    let plan = FaultPlan {
        seed: 1,
        chunk_panic: 1.0,
        ..FaultPlan::default()
    };
    let err = mc(Some(plan), &ExecPolicy::serial()).expect_err("no chunks survive");
    match err {
        SsnError::AllChunksFailed {
            failed,
            total,
            first_cause,
        } => {
            assert_eq!((failed, total), (4, 4));
            assert!(first_cause.contains("injected fault"), "{first_cause}");
        }
        other => panic!("expected AllChunksFailed, got {other}"),
    }
}

/// Fault class 3: forced solver-rung failures. Disabling the primary rung
/// degrades `required_rise_time` to bisection — same root, and the
/// degradation is visible in the SolveReport rather than silent.
#[test]
fn solver_ladder_falls_back_when_a_rung_is_disabled() {
    let s = scenario(8);
    let budget = Volts::new(0.4);
    let (tr_clean, clean) =
        design::required_rise_time_with_report(&s, budget, &Faults::none()).expect("clean");
    assert_eq!(clean.method, "brent");
    assert!(clean.is_clean());

    let plan = FaultPlan {
        seed: 5,
        solver_rungs: rung::BRENT,
        ..FaultPlan::default()
    };
    let (tr_fallback, report) =
        design::required_rise_time_with_report(&s, budget, &Faults::arm(plan))
            .expect("bisect rung still succeeds");
    assert_eq!(report.method, "bisect");
    // A disabled rung is skipped, not counted as tried.
    assert_eq!(report.rungs_tried, 1);
    let rel = (tr_fallback.value() - tr_clean.value()).abs() / tr_clean.value();
    assert!(rel < 1e-6, "fallback root drifted: {rel:.3e}");

    // Disabling the whole ladder is a typed error, not a hang or a panic.
    let plan = FaultPlan {
        seed: 5,
        solver_rungs: rung::NEWTON | rung::BRENT | rung::BISECT,
        ..FaultPlan::default()
    };
    let err = design::required_rise_time_with_report(&s, budget, &Faults::arm(plan))
        .expect_err("every rung disabled");
    assert!(matches!(err, SsnError::Fit(_)), "got {err}");
}

/// Panic isolation also covers the design-grid sweep: surviving points keep
/// their `(N, L)` attribution and row-major order.
#[test]
fn grid_sweep_survives_chunk_panics_with_partial_points() {
    let s = scenario(8);
    let ns: Vec<usize> = (1..=10).collect();
    let ls: Vec<Henrys> = (1..=13).map(|l| Henrys::from_nanos(l as f64)).collect();
    let total_points = ns.len() * ls.len(); // 130 points -> 3 chunks of 64

    let plan = FaultPlan {
        seed: 11,
        chunk_panic: 0.5,
        ..FaultPlan::default()
    };
    let armed = ExecPolicy::serial().with_faults(Faults::arm(plan));
    let (points, stats) = design::sweep_design_grid(&s, &ns, &ls, &armed)
        .expect("surviving chunks form a partial sweep");
    assert!(
        stats.failed_chunks > 0,
        "the plan must cost at least one chunk"
    );
    assert!(points.len() < total_points);
    assert!(!points.is_empty());
    // Every surviving point is attributable and matches a clean evaluation.
    for p in &points {
        assert!(ns.contains(&p.n_drivers));
        assert!(ls.contains(&p.inductance));
        let direct = s
            .with_drivers(p.n_drivers)
            .unwrap()
            .with_package(p.inductance, s.capacitance())
            .unwrap();
        assert_eq!(p.vn_lc, lcmodel::vn_max(&direct).0);
    }
}

/// Determinism holds fault-ON: the same plan produces bit-identical
/// surviving samples and the same loss pattern at every thread count.
#[test]
fn injected_faults_are_deterministic() {
    let plan = FaultPlan {
        seed: 9,
        chunk_panic: 0.4,
        ..FaultPlan::default()
    };
    let (base, base_stats) = mc(Some(plan), &ExecPolicy::serial()).expect("partial");
    for threads in [2usize, 8] {
        let (again, stats) = mc(Some(plan), &ExecPolicy::with_threads(threads)).expect("partial");
        assert_eq!(stats.failed_chunks, base_stats.failed_chunks);
        let a: Vec<u64> = base.samples().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = again.samples().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "fault pattern changed at {threads} threads");
    }
}

/// Determinism holds fault-OFF: a run with no plan, a run under an inert
/// plan, and a run made while *another* run in the process is armed are
/// all bit-identical — the plane belongs to the run that armed it. The
/// side-by-side cases race an unarmed run against an armed one on two
/// threads, round after round: Monte Carlo beside NaN and panic faults,
/// and durable runs beside a crash plan and beside a disk plan.
#[test]
fn disarmed_injection_is_bit_identical_to_no_injection() {
    let (clean, clean_stats) = mc(None, &ExecPolicy::serial()).expect("clean");
    assert_eq!(clean_stats.failed_chunks, 0);
    let (armed_zero, stats) = mc(Some(FaultPlan::default()), &ExecPolicy::serial())
        .expect("an all-zero plan injects nothing");
    assert_eq!(stats.failed_chunks, 0);
    let a: Vec<u64> = clean.samples().iter().map(|v| v.to_bits()).collect();
    let b: Vec<u64> = armed_zero.samples().iter().map(|v| v.to_bits()).collect();
    assert_eq!(a, b);

    let two = ExecPolicy::with_threads(2);
    let hostile = FaultPlan {
        seed: 3,
        nan: 0.01,
        chunk_panic: 0.5,
        ..FaultPlan::default()
    };
    for (result, stats) in side_by_side(
        || drop(mc(Some(hostile), &two)),
        || mc(None, &two).expect("unarmed run beside an armed one"),
    ) {
        assert_eq!(stats.failed_chunks, 0, "a neighbour's plan leaked in");
        let got: Vec<u64> = result.samples().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, a, "a neighbour's plan changed the samples");
    }

    let alone = durable_mc(None, "alone").expect("durable run alone");
    assert!(alone.1.degradation.is_empty() && alone.1.resumed_chunks == 0);
    for plan in [
        FaultPlan {
            crash_after_commits: Some(1),
            ..FaultPlan::default()
        },
        FaultPlan {
            enospc: 1.0,
            eio: 0.5,
            ..FaultPlan::default()
        },
    ] {
        for beside in side_by_side(
            || drop(durable_mc(Some(plan), "armed")),
            || durable_mc(None, "unarmed").expect("unarmed durable run beside an armed one"),
        ) {
            assert_eq!(
                beside, alone,
                "{plan:?} leaked into a neighbouring durable run"
            );
        }
    }
}

/// Runs `armed` and `unarmed` at the same time on two threads, released
/// together by a barrier, for several rounds; returns the unarmed results.
fn side_by_side<R: Send>(armed: impl Fn() + Sync, unarmed: impl Fn() -> R + Sync) -> Vec<R> {
    const ROUNDS: usize = 12;
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..ROUNDS {
                barrier.wait();
                armed();
            }
        });
        (0..ROUNDS)
            .map(|_| {
                barrier.wait();
                unarmed()
            })
            .collect()
    })
}

/// A checkpointed Monte Carlo run on a fresh journal, optionally under
/// `plan`; returns the sample bits and the durability report.
fn durable_mc(plan: Option<FaultPlan>, tag: &str) -> Result<(Vec<u64>, Durability), SsnError> {
    static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let journal = std::env::temp_dir().join(format!(
        "ssn-fault-injection-{}-{tag}-{n}.ckpt",
        std::process::id()
    ));
    let policy =
        ExecPolicy::with_threads(2).with_faults(plan.map_or_else(Faults::none, Faults::arm));
    let run = run_monte_carlo_durable(
        &scenario(8),
        &VariationSpec::typical(),
        SAMPLES,
        42,
        &policy,
        &DurableOptions {
            checkpoint: Some(journal.clone()),
            resume: false,
            budget: RunBudget::unlimited(),
        },
    );
    for leftover in [journal.clone(), journal.with_extension("ckpt-tmp")] {
        let _ = std::fs::remove_file(leftover);
    }
    let mut lock = journal.into_os_string();
    lock.push(".lock");
    let _ = std::fs::remove_file(lock);
    run.map(|(mc, _, durability)| {
        (
            mc.samples().iter().map(|v| v.to_bits()).collect(),
            durability,
        )
    })
}
