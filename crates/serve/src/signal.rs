//! SIGTERM / SIGINT → graceful drain, with no dependency beyond the
//! libc that std already links.
//!
//! The handler does the only async-signal-safe thing possible: store a
//! relaxed `true` into a static [`AtomicBool`]. The serving loop
//! ([`crate::ServerHandle::run_until`]) polls that flag and runs the
//! ordinary drain protocol on the main thread — no work happens in
//! signal context.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// The process-wide shutdown flag set by [`install`]d handlers.
pub fn shutdown_flag() -> &'static AtomicBool {
    &SHUTDOWN
}

/// Installs SIGTERM and SIGINT handlers that flip [`shutdown_flag`].
/// Best-effort and idempotent; on non-unix targets it is a no-op (the
/// drain can still be driven through [`crate::ServerHandle::join`]).
#[cfg(unix)]
pub fn install() {
    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    // std links libc on unix; declaring `signal` here avoids a cargo
    // dependency for two syscalls. sighandler_t is pointer-sized, so
    // usize is ABI-compatible for the ignored return value.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
pub fn install() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_flips_and_resets() {
        SHUTDOWN.store(false, Ordering::SeqCst);
        assert!(!shutdown_flag().load(Ordering::SeqCst));
        shutdown_flag().store(true, Ordering::SeqCst);
        assert!(shutdown_flag().load(Ordering::SeqCst));
        SHUTDOWN.store(false, Ordering::SeqCst);
        assert!(!shutdown_flag().load(Ordering::SeqCst));
    }

    #[cfg(unix)]
    #[test]
    fn install_is_idempotent() {
        install();
        install();
    }
}
