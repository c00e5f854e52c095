//! The fault plane: deterministic, run-scoped fault injection for every
//! robustness contract in the suite.
//!
//! One [`FaultPlan`] describes every fault the suite can inject, under one
//! seed:
//!
//! | site             | knobs                                            | keyed by          |
//! |------------------|--------------------------------------------------|-------------------|
//! | model outputs    | `nan`                                            | Monte Carlo sample |
//! | parallel workers | `chunk_panic`                                    | chunk index       |
//! | solver ladder    | `solver_rungs`                                   | (a rung bitmask)  |
//! | durable runs     | `crash_after_commits`                            | (a commit count)  |
//! | storage          | `enospc`, `eio`, `fsync`, `torn_write`, `kill_at`| storage op index  |
//! | network          | `torn_body`, `disconnect`, `handler_panic`       | connection serial |
//!
//! Every probabilistic decision is `decide(seed, site, index, p)`: an
//! FNV-1a hash of the three keys mapped into `[0, 1)`. The index is an item,
//! chunk, operation or connection number, never a thread or the clock, so a
//! plan injects the same faults at any thread count.
//!
//! A plan does nothing until it is armed for a run. [`Faults::arm`] pairs it
//! with the run's own mutable state: the storage op counter and the
//! simulated-death latch. The handle travels with the run — inside
//! [`crate::parallel::ExecPolicy`] for the parallel engine and the durable
//! runner, inside the server's shared state for its connection and job
//! threads — so two runs in one process never see each other's faults.
//! [`Faults::none`] (the default) is the disarmed plane: each site costs one
//! branch on an `Option`.
//!
//! Release binaries take the plan from the `SSN_FAULTS` environment variable
//! (grammar at [`FaultPlan::parse`]); a malformed spec is an error, never a
//! silently fault-free drill.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Everything to inject, and how often. All knobs default to off.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// Probability that a Monte Carlo model output becomes NaN, per sample.
    pub nan: f64,
    /// Probability that a parallel chunk panics, per chunk.
    pub chunk_panic: f64,
    /// Rungs of the solver fallback ladder to force-fail, as a
    /// `ssn_numeric::solve::rung` bitmask.
    pub solver_rungs: u8,
    /// Simulated `kill -9` for durable runs: after this many checkpoint
    /// commits the run stops scheduling work and returns
    /// `SsnError::Interrupted`.
    pub crash_after_commits: Option<usize>,
    /// Probability a write-class storage op fails with ENOSPC (persistent:
    /// never retried; the caller degrades).
    pub enospc: f64,
    /// Probability a storage op fails with a flaky-media EIO (transient:
    /// retried, and a retry is decided afresh at the next op index).
    pub eio: f64,
    /// Probability an fsync fails after the data was written (transient).
    pub fsync: f64,
    /// Probability a write is torn: half the bytes land, then the op fails
    /// (transient; the retry rewrites from scratch).
    pub torn_write: f64,
    /// Power cut at exactly this storage op index: the op leaves a partial
    /// effect and every later op fails — the crash-consistency sweep's knob.
    pub kill_at: Option<u64>,
    /// Probability a request body read is torn mid-transfer, per connection.
    pub torn_body: f64,
    /// Probability a connection drops before its response is written.
    pub disconnect: f64,
    /// Probability a request handler panics mid-computation.
    pub handler_panic: f64,
}

/// A malformed `SSN_FAULTS` spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    /// What was wrong, naming the offending field.
    pub detail: String,
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed SSN_FAULTS: {}", self.detail)
    }
}

impl std::error::Error for FaultSpecError {}

impl FaultPlan {
    /// Parses the `SSN_FAULTS` grammar: comma-separated `key=value` fields,
    /// any order, all optional. The keys are the field names of this type;
    /// probabilities lie in `[0, 1]`, and
    /// `seed`/`solver_rungs`/`crash_after_commits`/`kill_at` take
    /// non-negative integers. Empty text is the inert plan. Anything else —
    /// an unknown key, a missing `=`, an out-of-range value — is an error.
    pub fn parse(text: &str) -> Result<Self, FaultSpecError> {
        let mut plan = Self::default();
        for field in text.split(',').map(str::trim).filter(|f| !f.is_empty()) {
            let Some((key, value)) = field.split_once('=') else {
                return Err(spec_err(format!("{field:?} is not key=value")));
            };
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => plan.seed = number(key, value)?,
                "nan" => plan.nan = probability(key, value)?,
                "chunk_panic" => plan.chunk_panic = probability(key, value)?,
                "solver_rungs" => plan.solver_rungs = number(key, value)?,
                "crash_after_commits" => plan.crash_after_commits = Some(number(key, value)?),
                "enospc" => plan.enospc = probability(key, value)?,
                "eio" => plan.eio = probability(key, value)?,
                "fsync" => plan.fsync = probability(key, value)?,
                "torn_write" => plan.torn_write = probability(key, value)?,
                "kill_at" => plan.kill_at = Some(number(key, value)?),
                "torn_body" => plan.torn_body = probability(key, value)?,
                "disconnect" => plan.disconnect = probability(key, value)?,
                "handler_panic" => plan.handler_panic = probability(key, value)?,
                _ => return Err(spec_err(format!("unknown key {key:?}"))),
            }
        }
        Ok(plan)
    }
}

fn spec_err(detail: String) -> FaultSpecError {
    FaultSpecError { detail }
}

fn number<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, FaultSpecError> {
    value
        .parse()
        .map_err(|_| spec_err(format!("{key}={value:?} is not a non-negative integer")))
}

fn probability(key: &str, value: &str) -> Result<f64, FaultSpecError> {
    match value.parse::<f64>() {
        Ok(p) if (0.0..=1.0).contains(&p) => Ok(p),
        _ => Err(spec_err(format!(
            "{key}={value:?} is not a probability in [0, 1]"
        ))),
    }
}

/// Decision-stream keys: the same index at two sites is two independent
/// decisions.
pub(crate) mod site {
    pub const NAN: u64 = 0x5153_4e5f_4e61_4e00;
    pub const CHUNK_PANIC: u64 = 0x5153_4e5f_7061_6e00;
    pub const TORN_BODY: u64 = 0;
    pub const DISCONNECT: u64 = 1;
    pub const HANDLER_PANIC: u64 = 2;
    pub const ENOSPC: u64 = 0x5344_4953_4b5f_6e6f;
    pub const EIO: u64 = 0x5344_4953_4b5f_6569;
    pub const FSYNC: u64 = 0x5344_4953_4b5f_6673;
    pub const TORN_WRITE: u64 = 0x5344_4953_4b5f_746f;
}

/// The one decision function: `true` with probability `p`, as a pure
/// function of `(seed, site, index)`. Zero never fires; one always does.
pub(crate) fn decide(seed: u64, site: u64, index: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    let mut bytes = [0u8; 24];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..16].copy_from_slice(&site.to_le_bytes());
    bytes[16..].copy_from_slice(&index.to_le_bytes());
    let h = crate::durable::fnv1a64(&bytes);
    // Upper 53 bits → uniform in [0, 1).
    let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    u < p
}

/// A plan armed for one run, with the run's mutable fault state.
#[derive(Debug)]
pub(crate) struct Armed {
    pub(crate) plan: FaultPlan,
    /// Storage operations performed so far (the storage decision index).
    pub(crate) disk_ops: AtomicU64,
    /// Set once `kill_at` fires: the simulated process is dead.
    pub(crate) dead: AtomicBool,
}

/// The run-scoped fault plane: disarmed ([`Faults::none`]) or one armed
/// [`FaultPlan`] plus its per-run state. Clones share that state, which is
/// how a run hands its plane to its worker threads.
#[derive(Debug, Clone, Default)]
pub struct Faults(Option<Arc<Armed>>);

impl PartialEq for Faults {
    /// Two handles are equal when both are disarmed or both share one
    /// armed run state.
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for Faults {}

impl Faults {
    /// The disarmed plane: nothing is ever injected.
    pub fn none() -> Self {
        Self(None)
    }

    /// Arms `plan` with fresh run state (op counter at 0, nobody dead).
    pub fn arm(plan: FaultPlan) -> Self {
        Self(Some(Arc::new(Armed {
            plan,
            disk_ops: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        })))
    }

    /// The armed plan, or `None` when disarmed.
    fn plan(&self) -> Option<&FaultPlan> {
        self.0.as_ref().map(|a| &a.plan)
    }

    pub(crate) fn armed(&self) -> Option<&Armed> {
        self.0.as_deref()
    }

    fn fires(&self, site: u64, index: u64, p: impl Fn(&FaultPlan) -> f64) -> bool {
        self.plan()
            .is_some_and(|plan| decide(plan.seed, site, index, p(plan)))
    }

    /// Model-output site: turns the outputs of one chunk into NaN where the
    /// plan says so. `first` is the global sample index of `values[0]`.
    pub(crate) fn corrupt_outputs(&self, first: usize, values: &mut [f64]) {
        if let Some(p) = self.plan().filter(|p| p.nan > 0.0) {
            for (i, v) in values.iter_mut().enumerate() {
                if decide(p.seed, site::NAN, (first + i) as u64, p.nan) {
                    *v = f64::NAN;
                }
            }
        }
    }

    /// Worker site: panics at the top of chunk `chunk` when the plan says
    /// so.
    pub(crate) fn chunk_panic(&self, chunk: usize) {
        if self.fires(site::CHUNK_PANIC, chunk as u64, |p| p.chunk_panic) {
            panic!("injected fault: worker panic in chunk {chunk}");
        }
    }

    /// Solver site: the fallback-ladder rungs to force-fail (0 when
    /// disarmed).
    pub(crate) fn solver_rungs(&self) -> u8 {
        self.plan().map_or(0, |p| p.solver_rungs)
    }

    /// Durable-run site: `crash_after_commits`, or `None` when no crash is
    /// planned.
    pub(crate) fn crash(&self) -> Option<usize> {
        self.plan().and_then(|p| p.crash_after_commits)
    }

    /// Storage operations this plane has gated so far (the crash sweep
    /// sizes its kill schedule with it).
    pub fn disk_ops(&self) -> u64 {
        self.armed()
            .map_or(0, |a| a.disk_ops.load(Ordering::SeqCst))
    }

    /// `true` once `kill_at` has fired: the simulated process is dead, and
    /// nothing may degrade-and-continue past it.
    pub fn dead(&self) -> bool {
        self.armed().is_some_and(|a| a.dead.load(Ordering::SeqCst))
    }

    /// Network site: tear connection `conn`'s request body?
    pub fn torn_body(&self, conn: u64) -> bool {
        self.fires(site::TORN_BODY, conn, |p| p.torn_body)
    }

    /// Network site: drop connection `conn` before its response is written?
    pub fn disconnect(&self, conn: u64) -> bool {
        self.fires(site::DISCONNECT, conn, |p| p.disconnect)
    }

    /// Network site: panics when the plan injects a handler panic for
    /// connection `conn`. Call inside the handler's `catch_unwind`.
    pub fn handler_panic(&self, conn: u64) {
        if self.fires(site::HANDLER_PANIC, conn, |p| p.handler_panic) {
            panic!("injected handler panic (connection {conn})");
        }
    }
}

/// A way to damage a checkpoint journal on disk, for exercising the
/// corruption-detection paths (`tests/durability.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalCorruption {
    /// Keep only the first `keep` bytes — a torn or interrupted write.
    Truncate {
        /// Bytes to keep from the start of the file.
        keep: usize,
    },
    /// XOR the byte at `offset` (modulo file length) with `mask` — silent
    /// media or transfer corruption that only a checksum can catch.
    BitFlip {
        /// Byte offset to damage (wrapped modulo the file length).
        offset: usize,
        /// Non-zero XOR mask applied to that byte.
        mask: u8,
    },
    /// Overwrite the format-version field with a version this build does
    /// not understand — a journal left behind by a different release.
    StaleVersion,
}

/// Applies `how` to the journal at `path` in place.
///
/// Test-only tooling: unlike the other fault sites this takes effect
/// immediately and needs no armed plan — corruption on disk is not a
/// runtime decision.
pub fn corrupt_checkpoint(path: &std::path::Path, how: JournalCorruption) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    match how {
        JournalCorruption::Truncate { keep } => bytes.truncate(keep),
        JournalCorruption::BitFlip { offset, mask } => {
            if !bytes.is_empty() {
                let i = offset % bytes.len();
                bytes[i] ^= if mask == 0 { 0x01 } else { mask };
            }
        }
        JournalCorruption::StaleVersion => {
            // The version field is the u32 directly after the 8-byte magic
            // (see `ssn_core::durable` format docs).
            if bytes.len() >= 12 {
                bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
            }
        }
    }
    std::fs::write(path, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_one_grammar_and_rejects_everything_else() {
        let p = FaultPlan::parse(
            "seed=9, nan=0.5,chunk_panic=1,solver_rungs=3,crash_after_commits=2,\
             enospc=0.25,eio=0.5,fsync=1,torn_write=0.1,kill_at=7,torn_body=0.2,\
             disconnect=0.3,handler_panic=0.05",
        )
        .unwrap();
        assert_eq!(
            p,
            FaultPlan {
                seed: 9,
                nan: 0.5,
                chunk_panic: 1.0,
                solver_rungs: 3,
                crash_after_commits: Some(2),
                enospc: 0.25,
                eio: 0.5,
                fsync: 1.0,
                torn_write: 0.1,
                kill_at: Some(7),
                torn_body: 0.2,
                disconnect: 0.3,
                handler_panic: 0.05,
            }
        );
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        // `torn` and `panic` would be ambiguous between sites: rejected.
        for bad in [
            "torn=0.1",
            "panic=0.1",
            "eio=2",
            "zebra=1",
            "eio",
            "panic_once=1",
            "crash_torn=1",
            "kill_at=-1",
            "seed=x",
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(err.to_string().starts_with("malformed SSN_FAULTS"), "{err}");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_probability_shaped() {
        let fired: Vec<bool> = (0..1000).map(|i| decide(3, site::EIO, i, 0.5)).collect();
        let again: Vec<bool> = (0..1000).map(|i| decide(3, site::EIO, i, 0.5)).collect();
        assert_eq!(fired, again, "same seed and order fire identically");
        let count = fired.iter().filter(|&&b| b).count();
        assert!((300..700).contains(&count), "got {count} of 1000 at p=0.5");
        assert!(
            !decide(3, site::EIO, 7, 0.0),
            "zero probability never fires"
        );
        assert!(
            decide(3, site::EIO, 7, 1.0),
            "unit probability always fires"
        );
        // Sites and seeds are independent streams.
        let other: Vec<bool> = (0..1000)
            .map(|i| decide(3, site::TORN_WRITE, i, 0.5))
            .collect();
        assert_ne!(fired, other);
        let reseeded: Vec<bool> = (0..1000).map(|i| decide(4, site::EIO, i, 0.5)).collect();
        assert_ne!(fired, reseeded);
    }

    #[test]
    fn disarmed_plane_is_transparent() {
        let off = Faults::none();
        let mut values = [1.25, 2.5];
        off.corrupt_outputs(7, &mut values);
        assert_eq!(values, [1.25, 2.5]);
        off.chunk_panic(3); // must not panic
        off.handler_panic(3);
        assert_eq!(off.solver_rungs(), 0);
        assert_eq!(off.crash(), None);
        assert!(!off.torn_body(0) && !off.disconnect(0) && !off.dead());
        assert_eq!(off, Faults::default());
    }

    #[test]
    fn crash_plan_is_read_from_each_armed_run() {
        let plan = FaultPlan {
            crash_after_commits: Some(3),
            ..FaultPlan::default()
        };
        let run = Faults::arm(plan);
        assert_eq!(run.crash(), Some(3));
        assert_eq!(Faults::arm(FaultPlan::default()).crash(), None);
        // A clone shares the run's state; a second arm of the same plan is
        // a distinct run that starts clean.
        let shared = run.clone();
        run.armed()
            .expect("armed")
            .dead
            .store(true, Ordering::SeqCst);
        assert!(shared.dead());
        let next = Faults::arm(plan);
        assert!(!next.dead());
        assert_eq!(run, shared);
        assert_ne!(run, next);
    }
}
