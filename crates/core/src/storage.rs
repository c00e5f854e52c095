//! The storage fault layer: every durable-path I/O primitive behind one
//! trait, with deterministic fault injection and a typed retry policy.
//!
//! The durability story (journaled checkpoints, the optimizer's `.lv<k>`
//! journal family, `JournalLock`, the server's content-addressed result
//! cache and job spool) proves kill→resume bit-identity — but a disk that
//! *errors* is a different failure class from a process that dies. ENOSPC,
//! EIO, and failed fsync must land in the same typed-error-or-declared-
//! degradation contract the solver and network layers already obey, never
//! an untyped abort mid-run.
//!
//! # The pieces
//!
//! * [`CkptIo`] — the trait abstracting every primitive a durable path
//!   performs: whole-file create/write/fsync, exclusive create (lock
//!   files), rename, parent-directory fsync, read, remove, mkdir.
//! * [`RealIo`] — the `std::fs` implementation. The only place in the
//!   durable paths that touches the filesystem directly.
//! * The storage sites of the fault plane — [`crate::faults::Faults`]
//!   implements [`CkptIo`] through one table that says, per primitive,
//!   which faults apply (ENOSPC, EIO, failed fsync, torn write) and what
//!   partial effect a power cut leaves. Every decision is
//!   `decide(seed, fault-site, operation-index)`: same
//!   seed, same operation order → same faults. A disarmed plane is a
//!   direct [`RealIo`] call.
//! * [`RetryPolicy`] — bounded retry with backoff for transient faults
//!   (flaky EIO, failed fsync, interrupted syscalls). Persistent faults
//!   (ENOSPC, permission, a dead process) are not retried: they go
//!   straight to the caller's degradation ladder.
//!
//! # The crash-consistency sweep
//!
//! The plan's `kill_at` simulates a power cut at one exact operation
//! index: the operation applies a *partial* effect (a torn write, a
//! skipped rename) and every later operation fails — the process is
//! "dead". `tests/storage_faults.rs` sweeps that kill point across every
//! operation index of a checkpointed run and proves the headline
//! invariant: restart yields a bit-identical resume or a typed
//! clean-slate rerun — never a panic, never silently-corrupt accepted
//! output.
//!
//! When disarmed (the default, and whenever `SSN_FAULTS` is unset) every
//! primitive is a direct `std::fs` call; fault-off runs are byte-identical
//! to a build without this layer.

use std::io;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Duration;

use crate::faults::{decide, site, Faults};

// ---------------------------------------------------------------------------
// The trait and the real implementation
// ---------------------------------------------------------------------------

/// Every I/O primitive a durable path performs, behind one seam.
///
/// The primitives are *whole operations*, not POSIX calls: `write_file`
/// is create + write-all + fsync because that is the unit the atomic
/// commit discipline reasons about (and the unit a fault tears).
pub trait CkptIo: Send + Sync {
    /// Creates (or truncates) `path`, writes `bytes`, and fsyncs the file.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Exclusively creates `path` (`O_EXCL`), writes `bytes`, fsyncs.
    /// Fails with [`io::ErrorKind::AlreadyExists`] when the file exists —
    /// the lock-acquisition primitive.
    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Fsyncs the directory itself, making a preceding rename durable.
    /// A no-op `Ok` on platforms where directories cannot be opened.
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Reads the whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
}

/// The `std::fs` implementation of [`CkptIo`].
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl CkptIo for RealIo {
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        #[cfg(unix)]
        {
            std::fs::File::open(dir)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = dir;
            Ok(())
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

// ---------------------------------------------------------------------------
// The fault plan
// ---------------------------------------------------------------------------

/// What class of storage fault was injected (carried inside the
/// `io::Error` so the retry policy can classify without string matching).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFaultKind {
    /// The disk is full — persistent; not retried.
    Enospc,
    /// A flaky-media read/write error — transient; retried.
    Eio,
    /// The fsync itself failed (data reached the page cache but its
    /// durability is unknown) — transient; retried, and a retried
    /// `write_file` rewrites from scratch so the retry is safe.
    FsyncFailed,
    /// The write was torn partway — transient for the same reason.
    TornWrite,
    /// The simulated power cut of the plan's `kill_at` — the
    /// process is "dead"; persistent, never retried.
    Killed,
}

impl InjectedFaultKind {
    fn tag(self) -> &'static str {
        match self {
            Self::Enospc => "enospc",
            Self::Eio => "eio",
            Self::FsyncFailed => "fsync-failed",
            Self::TornWrite => "torn-write",
            Self::Killed => "killed",
        }
    }
}

/// The payload of an injected `io::Error`; retrievable via
/// [`injected_fault`].
#[derive(Debug)]
struct InjectedFault {
    kind: InjectedFaultKind,
    op: u64,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected disk fault: {} (op {})",
            self.kind.tag(),
            self.op
        )
    }
}

impl std::error::Error for InjectedFault {}

fn injected(kind: InjectedFaultKind, op: u64) -> io::Error {
    let io_kind = match kind {
        InjectedFaultKind::Enospc => io::ErrorKind::StorageFull,
        _ => io::ErrorKind::Other,
    };
    io::Error::new(io_kind, InjectedFault { kind, op })
}

/// The [`InjectedFaultKind`] inside `e`, when `e` came from the injector.
pub fn injected_fault(e: &io::Error) -> Option<InjectedFaultKind> {
    e.get_ref()
        .and_then(|r| r.downcast_ref::<InjectedFault>())
        .map(|f| f.kind)
}

// ---------------------------------------------------------------------------
// The plane's storage sites: one table
// ---------------------------------------------------------------------------

/// The primitives of [`CkptIo`], as rows of the fault table.
#[derive(Debug, Clone, Copy)]
enum Op {
    WriteFile,
    CreateNew,
    Rename,
    FsyncDir,
    Read,
    RemoveFile,
    CreateDirAll,
}

/// The fault table: which probabilistic faults can hit `op`, as
/// `(enospc, torn_write, eio, fsync)`. They are checked in that order,
/// after `kill_at`; a failed fsync is decided once the real op has run.
const fn rule(op: Op) -> (bool, bool, bool, bool) {
    match op {
        Op::WriteFile => (true, true, true, true),
        Op::CreateNew => (true, false, true, true),
        Op::Rename | Op::Read | Op::RemoveFile => (false, false, true, false),
        Op::FsyncDir => (false, false, false, true),
        Op::CreateDirAll => (true, false, true, false),
    }
}

impl Faults {
    /// Runs one storage op through the armed plan. `partial` applies what a
    /// power cut (or a torn write) leaves behind; `real` is the op itself.
    /// Disarmed, this is exactly `real()`.
    fn inject<T>(
        &self,
        op: Op,
        partial: impl FnOnce(),
        real: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        let Some(armed) = self.armed() else {
            return real();
        };
        // After the power cut every op fails, and none is counted.
        if armed.dead.load(Ordering::SeqCst) {
            return Err(injected(
                InjectedFaultKind::Killed,
                armed.disk_ops.load(Ordering::SeqCst),
            ));
        }
        let n = armed.disk_ops.fetch_add(1, Ordering::SeqCst);
        let p = &armed.plan;
        let (enospc, torn, eio, fsync) = rule(op);
        let fires = |on: bool, site: u64, prob: f64| on && decide(p.seed, site, n, prob);
        let fault = if p.kill_at == Some(n) {
            armed.dead.store(true, Ordering::SeqCst);
            partial();
            Some(InjectedFaultKind::Killed)
        } else if fires(enospc, site::ENOSPC, p.enospc) {
            Some(InjectedFaultKind::Enospc)
        } else if fires(torn, site::TORN_WRITE, p.torn_write) {
            partial();
            Some(InjectedFaultKind::TornWrite)
        } else if fires(eio, site::EIO, p.eio) {
            Some(InjectedFaultKind::Eio)
        } else {
            None
        };
        let fault = match fault {
            Some(kind) => kind,
            None => {
                let out = real()?;
                if !fires(fsync, site::FSYNC, p.fsync) {
                    return Ok(out);
                }
                InjectedFaultKind::FsyncFailed
            }
        };
        if ssn_telemetry::enabled() {
            ssn_telemetry::add(ssn_telemetry::names::STORAGE_FAULTS, 1);
        }
        Err(injected(fault, n))
    }
}

/// The plane's storage sites: each primitive goes through the fault table,
/// with the partial effect a cut leaves. Disarmed, every call is [`RealIo`].
impl CkptIo for Faults {
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        // Cut or torn mid-write: half the bytes land, nothing is synced.
        let half = || drop(RealIo.write_file(path, &bytes[..bytes.len() / 2]));
        self.inject(Op::WriteFile, half, || RealIo.write_file(path, bytes))
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        // Cut while taking a lock: the file exists, the PID never lands —
        // the torn-lock husk that staleness recovery covers.
        let husk = || drop(RealIo.create_new(path, b""));
        self.inject(Op::CreateNew, husk, || RealIo.create_new(path, bytes))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        // Cut before the rename: the temp file stays orphaned.
        self.inject(Op::Rename, || {}, || RealIo.rename(from, to))
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inject(Op::FsyncDir, || {}, || RealIo.fsync_dir(dir))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inject(Op::Read, || {}, || RealIo.read(path))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inject(Op::RemoveFile, || {}, || RealIo.remove_file(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inject(Op::CreateDirAll, || {}, || RealIo.create_dir_all(path))
    }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// `true` for faults worth retrying: interrupted/timed-out syscalls and
/// the injected transient classes (EIO, failed fsync, torn write). ENOSPC,
/// permission problems, missing files, and a simulated power cut are
/// persistent — retrying cannot help, the degradation ladder can.
pub fn is_transient(e: &io::Error) -> bool {
    if let Some(kind) = injected_fault(e) {
        return matches!(
            kind,
            InjectedFaultKind::Eio | InjectedFaultKind::FsyncFailed | InjectedFaultKind::TornWrite
        );
    }
    match e.kind() {
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => true,
        io::ErrorKind::StorageFull
        | io::ErrorKind::PermissionDenied
        | io::ErrorKind::NotFound
        | io::ErrorKind::AlreadyExists
        | io::ErrorKind::Unsupported => false,
        // Real-media EIO surfaces as an uncategorized kind; one bounded
        // retry round is cheap and may clear a genuinely flaky sector.
        _ => true,
    }
}

/// Bounded retry-with-backoff for transient storage faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 = no retry.
    pub attempts: u32,
    /// Sleep before retry `n` is `base_backoff * 2^(n-1)`.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            base_backoff: Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    /// No retries: every fault surfaces on the first attempt.
    pub fn none() -> Self {
        Self {
            attempts: 1,
            base_backoff: Duration::ZERO,
        }
    }

    /// Runs `f`, retrying transient failures up to the attempt budget
    /// with doubling backoff. Persistent failures (see [`is_transient`])
    /// return immediately. Each retry is counted in the
    /// `storage.retries` telemetry counter.
    pub fn run<T>(&self, mut f: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let attempts = self.attempts.max(1);
        let mut backoff = self.base_backoff;
        let mut attempt = 1;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if attempt < attempts && is_transient(&e) => {
                    if ssn_telemetry::enabled() {
                        ssn_telemetry::add(ssn_telemetry::names::STORAGE_RETRIES, 1);
                    }
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                        backoff = backoff.saturating_mul(2);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "ssn-storage-unit-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ))
    }

    #[test]
    fn disarmed_plane_is_the_real_filesystem() {
        let io = Faults::none();
        let path = temp_path("real");
        io.write_file(&path, b"plain").unwrap();
        assert_eq!(io.read(&path).unwrap(), b"plain");
        io.remove_file(&path).unwrap();
        assert!(io.read(&path).is_err());
        assert_eq!(io.disk_ops(), 0, "a disarmed plane counts nothing");
    }

    #[test]
    fn enospc_schedule_fails_writes_typed_and_leaves_no_file() {
        let path = temp_path("enospc");
        let io = Faults::arm(FaultPlan {
            enospc: 1.0,
            ..FaultPlan::default()
        });
        let e = io.write_file(&path, b"doomed").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        assert_eq!(injected_fault(&e), Some(InjectedFaultKind::Enospc));
        assert!(!is_transient(&e), "ENOSPC must not be retried");
        assert!(!path.exists(), "a failed allocation writes nothing");
    }

    #[test]
    fn torn_write_leaves_half_the_bytes_and_is_transient() {
        let path = temp_path("torn");
        let io = Faults::arm(FaultPlan {
            torn_write: 1.0,
            ..FaultPlan::default()
        });
        let e = io.write_file(&path, &[7u8; 64]).unwrap_err();
        assert_eq!(injected_fault(&e), Some(InjectedFaultKind::TornWrite));
        assert!(is_transient(&e));
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk.len(), 32, "exactly half the bytes landed");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_fsync_applies_to_exactly_the_syncing_ops() {
        let path = temp_path("fsync");
        let io = Faults::arm(FaultPlan {
            fsync: 1.0,
            ..FaultPlan::default()
        });
        let e = io.write_file(&path, b"landed").unwrap_err();
        assert_eq!(injected_fault(&e), Some(InjectedFaultKind::FsyncFailed));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"landed",
            "data reached the file"
        );
        assert!(io.fsync_dir(&std::env::temp_dir()).is_err());
        assert_eq!(io.read(&path).unwrap(), b"landed", "reads never fsync");
        io.remove_file(&path).unwrap();
    }

    #[test]
    fn kill_at_applies_partial_effect_then_everything_fails() {
        let a = temp_path("kill-a");
        let b = temp_path("kill-b");
        let io = Faults::arm(FaultPlan {
            kill_at: Some(1),
            ..FaultPlan::default()
        });
        io.write_file(&a, &[1u8; 10]).unwrap(); // op 0 survives
        let e = io.write_file(&b, &[2u8; 10]).unwrap_err(); // op 1 dies
        assert_eq!(injected_fault(&e), Some(InjectedFaultKind::Killed));
        assert_eq!(std::fs::read(&b).unwrap().len(), 5, "torn at the cut");
        assert!(io.dead());
        // The process is dead: every later operation fails too.
        let e = io.read(&a).unwrap_err();
        assert_eq!(injected_fault(&e), Some(InjectedFaultKind::Killed));
        assert!(!is_transient(&e), "death is not retryable");
        assert_eq!(io.disk_ops(), 2, "ops after the cut are not counted");
        // Another run's plane is untouched by this one's death.
        assert_eq!(Faults::none().read(&a).unwrap(), vec![1u8; 10]);
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn retry_policy_clears_transient_faults_and_respects_persistent_ones() {
        let flaky_left = AtomicUsize::new(2);
        let policy = RetryPolicy {
            attempts: 3,
            base_backoff: Duration::ZERO,
        };
        let out = policy.run(|| {
            if flaky_left.fetch_sub(1, Ordering::SeqCst) > 0 {
                Err(injected(InjectedFaultKind::Eio, 0))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42, "two transient failures, third try wins");

        let tries = AtomicUsize::new(0);
        let out: io::Result<()> = policy.run(|| {
            tries.fetch_add(1, Ordering::SeqCst);
            Err(injected(InjectedFaultKind::Enospc, 0))
        });
        assert!(out.is_err());
        assert_eq!(
            tries.load(Ordering::SeqCst),
            1,
            "persistent faults are not retried"
        );

        let tries = AtomicUsize::new(0);
        let out: io::Result<()> = policy.run(|| {
            tries.fetch_add(1, Ordering::SeqCst);
            Err(injected(InjectedFaultKind::Eio, 0))
        });
        assert!(out.is_err());
        assert_eq!(
            tries.load(Ordering::SeqCst),
            3,
            "transient faults exhaust the attempt budget"
        );
    }

    #[test]
    fn op_counter_counts_every_gated_op() {
        let path = temp_path("ops");
        let io = Faults::arm(FaultPlan::default());
        io.write_file(&path, b"x").unwrap();
        io.read(&path).unwrap();
        io.remove_file(&path).unwrap();
        assert_eq!(io.disk_ops(), 3);
    }
}
