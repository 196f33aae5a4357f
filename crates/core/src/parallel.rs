//! Panic-free parallel execution for the scoring hot path.
//!
//! The executor maps an index-addressed pure function over `0..n` with a
//! pool of scoped workers that *steal work* via an atomic cursor over
//! fixed-size blocks, instead of pre-splitting into one static chunk per
//! thread. Two properties are load-bearing:
//!
//! * **Determinism.** Block `b` covers the fixed index range
//!   `[b·block_size, (b+1)·block_size)` and every slot `i` is written only
//!   by `f(i)`, so the output is byte-identical for every thread count —
//!   there is no reduction step whose float order could drift.
//! * **Panic safety.** Worker panics are caught with
//!   [`std::panic::catch_unwind`] and surfaced as a typed [`ScoreError`];
//!   a panicking closure can never abort the process or poison the run.
//!   The remaining workers drain on a shared failure flag.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Errors from a parallel scoring pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScoreError {
    /// A worker closure panicked; the payload message is preserved.
    WorkerPanic(String),
}

impl ScoreError {
    /// Static error-kind descriptor, safe for any diagnostic surface —
    /// unlike `Display`, it can never embed the panic payload.
    pub fn kind(&self) -> &'static str {
        match self {
            ScoreError::WorkerPanic(_) => "scoring worker panicked",
        }
    }
}

impl std::fmt::Display for ScoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoreError::WorkerPanic(msg) => write!(f, "scoring worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for ScoreError {}

/// Inputs below this size are not worth spawning threads for.
const SERIAL_CUTOFF: usize = 256;

/// Work-stealing granularity: indices claimed per cursor increment.
const BLOCK: usize = 256;

/// Maps `f` over `0..n` into a `Vec` whose slot `i` holds `f(i)`.
///
/// Runs on `threads` scoped workers pulling fixed-range blocks from an
/// atomic cursor. The result is byte-identical for every `threads` value
/// (slot `i` is always exactly `f(i)`; no cross-slot reduction). A panic
/// inside `f` — on any worker, or on the serial path — is caught and
/// returned as [`ScoreError::WorkerPanic`].
///
/// `f` is `Fn + Sync`, so it cannot mutate what it captures. A float
/// folded into a captured accumulator would sum in worker-completion
/// order; rustc rejects it (E0594):
///
/// ```compile_fail,E0594
/// use incite_core::parallel::map_indexed;
///
/// let vals = vec![0.5f32; 1_000];
/// let mut total = 0.0f32;
/// let _ = map_indexed(vals.len(), 4, |i| {
///     total += vals[i];
///     0u32
/// });
/// ```
///
/// Return the per-slot value instead and fold the returned slot vector
/// sequentially, which gives the same bits at any thread count:
///
/// ```
/// use incite_core::parallel::map_indexed;
///
/// let vals = vec![0.5f32; 1_000];
/// let slots = map_indexed(vals.len(), 4, |i| vals[i])?;
/// let mut total = 0.0f32;
/// for slot in slots {
///     total += slot;
/// }
/// assert_eq!(total, 500.0);
/// # Ok::<(), incite_core::parallel::ScoreError>(())
/// ```
pub fn map_indexed<T, F>(n: usize, threads: usize, f: F) -> Result<Vec<T>, ScoreError>
where
    T: Send + Default,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 || n < SERIAL_CUTOFF {
        return catch_unwind(AssertUnwindSafe(|| (0..n).map(&f).collect()))
            .map_err(|payload| ScoreError::WorkerPanic(panic_message(payload)));
    }
    run_blocks(n, threads, BLOCK, f)
}

/// [`map_indexed`] for *coarse* work units (whole files, whole shards):
/// the caller picks the block granularity and there is no serial cutoff,
/// so even a few dozen heavy items fan out across workers. Determinism
/// and panic safety are identical to [`map_indexed`] — slot `i` is always
/// exactly `f(i)` regardless of `threads` or `block`.
pub fn map_indexed_coarse<T, F>(
    n: usize,
    threads: usize,
    block: usize,
    f: F,
) -> Result<Vec<T>, ScoreError>
where
    T: Send + Default,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 || n <= 1 {
        return catch_unwind(AssertUnwindSafe(|| (0..n).map(&f).collect()))
            .map_err(|payload| ScoreError::WorkerPanic(panic_message(payload)));
    }
    run_blocks(n, threads, block.max(1), f)
}

fn run_blocks<T, F>(n: usize, threads: usize, block: usize, f: F) -> Result<Vec<T>, ScoreError>
where
    T: Send + Default,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<T> = Vec::with_capacity(n);
    out.resize_with(n, T::default);

    // Fixed-range output blocks. Each is claimed exactly once through the
    // cursor, so the per-block mutexes are uncontended; they exist to hand
    // a `&mut` region to whichever worker claims the block.
    let slots: Vec<Mutex<&mut [T]>> = out.chunks_mut(block).map(Mutex::new).collect();
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let failure: Mutex<Option<String>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while !failed.load(Ordering::Acquire) {
                    let b = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(b) else { break };
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        let mut cells = lock_unpoisoned(slot);
                        let base = b * block;
                        for (j, cell) in cells.iter_mut().enumerate() {
                            *cell = f(base + j);
                        }
                    }));
                    if let Err(payload) = result {
                        let mut guard = lock_unpoisoned(&failure);
                        guard.get_or_insert_with(|| panic_message(payload));
                        failed.store(true, Ordering::Release);
                        break;
                    }
                }
            });
        }
    });

    drop(slots);
    // `into_inner` can only be poisoned if a worker panicked while holding
    // the failure lock, which `catch_unwind` prevents; recover either way.
    let recorded = match failure.into_inner() {
        Ok(msg) => msg,
        Err(poisoned) => poisoned.into_inner(),
    };
    match recorded {
        Some(msg) => Err(ScoreError::WorkerPanic(msg)),
        None => Ok(out),
    }
}

/// Locks a mutex, recovering the data from a poisoned lock (the poisoning
/// panic is already captured separately by `catch_unwind`).
fn lock_unpoisoned<'a, T: ?Sized>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Renders a panic payload as text, without leaking its content.
///
/// `&str` payloads come from literal `panic!("…")` messages and carry no
/// runtime data, so they pass through. Formatted (`String`) payloads may
/// interpolate whatever the worker was holding — including document
/// text — so only their shape (length + content digest) survives. This
/// is the registered `panic_message` sanitizer in the incite-lint taint
/// model; the structure here is what makes that registration true.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!(
            "formatted panic payload redacted ({} bytes, fnv64 {:016x})",
            s.len(),
            incite_textkit::fnv1a(s.as_bytes(), 0)
        )
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_identical_across_thread_counts() {
        // Odd size: exercises the final short block.
        let n = 1013;
        let serial = map_indexed(n, 1, |i| (i * 31) as u64).unwrap();
        for threads in [2, 3, 8, 64] {
            let parallel = map_indexed(n, threads, |i| (i * 31) as u64).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(map_indexed(0, 4, |i| i).unwrap(), Vec::<usize>::new());
        assert_eq!(map_indexed(3, 4, |i| i).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn coarse_output_is_identical_across_threads_and_blocks() {
        let serial = map_indexed_coarse(83, 1, 1, |i| (i * 17) as u64).unwrap();
        for threads in [2, 3, 8] {
            for block in [1, 4, 97] {
                let parallel = map_indexed_coarse(83, threads, block, |i| (i * 17) as u64).unwrap();
                assert_eq!(serial, parallel, "threads = {threads}, block = {block}");
            }
        }
        assert_eq!(
            map_indexed_coarse(0, 4, 1, |i| i).unwrap(),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn coarse_worker_panic_becomes_score_error() {
        let result = map_indexed_coarse(40, 4, 1, |i| {
            if i == 7 {
                panic!("injected coarse failure");
            }
            i
        });
        assert!(matches!(result, Err(ScoreError::WorkerPanic(_))));
    }

    #[test]
    fn worker_panic_becomes_score_error() {
        let result = map_indexed(2_000, 4, |i| {
            if i == 777 {
                panic!("injected failure at {i}");
            }
            i as u32
        });
        match result {
            // Formatted panic payloads may interpolate worker inputs, so
            // only their shape (length + digest) survives — the payload
            // text itself must NOT appear in the error.
            Err(ScoreError::WorkerPanic(msg)) => {
                assert!(
                    msg.contains("redacted") && msg.contains("bytes, fnv64 "),
                    "message: {msg}"
                );
                assert!(!msg.contains("injected failure"), "payload leaked: {msg}");
                assert_eq!(
                    ScoreError::WorkerPanic(msg).kind(),
                    "scoring worker panicked"
                );
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn serial_path_panic_becomes_score_error() {
        let result = map_indexed(10, 1, |i| {
            if i == 5 {
                panic!("small input failure");
            }
            i
        });
        assert_eq!(
            result,
            Err(ScoreError::WorkerPanic("small input failure".to_string()))
        );
    }

    #[test]
    fn error_renders_its_message() {
        let err = ScoreError::WorkerPanic("boom".into());
        assert_eq!(err.to_string(), "scoring worker panicked: boom");
    }
}
