//! Unix signals as a cooperative interrupt flag, without a libc
//! dependency: `signal(2)` is in every libc the workspace links anyway.
//!
//! `wmn-sim` turns SIGINT into "checkpoint and exit 130"; `wmn-served`
//! turns SIGINT/SIGTERM into a graceful drain. Both poll the flag.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Interrupt from the keyboard (Ctrl-C).
pub const SIGINT: i32 = 2;
/// Termination request (`kill`, service managers).
pub const SIGTERM: i32 = 15;

static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

extern "C" fn on_signal(_sig: i32) {
    // Only async-signal-safe work here: one load and one store.
    if let Some(flag) = FLAG.get() {
        flag.store(true, Ordering::SeqCst);
    }
}

unsafe extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Install a handler for each of `signals`; any of them arriving
/// afterwards sets the returned flag (one flag per process, shared by
/// every call).
pub fn interrupt_on(signals: &[i32]) -> Arc<AtomicBool> {
    let flag = FLAG
        .get_or_init(|| Arc::new(AtomicBool::new(false)))
        .clone();
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    for &signum in signals {
        // SAFETY: `signal` is the C library's `signal(2)`, declared with
        // its ABI (`int`, a handler address in a pointer-sized integer).
        // `on_signal` is an `extern "C" fn(i32)` that only touches an
        // atomic behind an already-initialised `OnceLock`, which is
        // async-signal-safe. An invalid `signum` makes the call return
        // SIG_ERR and install nothing.
        unsafe {
            signal(signum, handler);
        }
    }
    flag
}

#[cfg(test)]
mod tests {
    use super::*;

    unsafe extern "C" {
        fn raise(signum: i32) -> i32;
    }

    #[test]
    fn a_raised_signal_sets_the_flag_instead_of_killing_the_process() {
        let flag = interrupt_on(&[SIGINT, SIGTERM]);
        assert!(!flag.load(Ordering::SeqCst));
        // SAFETY: `raise(3)` with a signal whose handler was installed
        // above runs that handler on this thread and returns.
        assert_eq!(unsafe { raise(SIGTERM) }, 0);
        assert!(flag.load(Ordering::SeqCst));
        assert!(Arc::ptr_eq(&flag, &interrupt_on(&[SIGINT])), "one flag");
    }
}
