//! The progress counter is process-wide, so its exact-count check runs in
//! a test binary of its own: in the library's unit-test binary, campaign
//! tests tick the same counter concurrently.

use bb_measure::progress::{reset, set_hook, window_done, windows_done};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn hook_fires_every_n_windows() {
    reset();
    let fired = Arc::new(AtomicUsize::new(0));
    let f = fired.clone();
    set_hook(
        3,
        Arc::new(move |_| {
            f.fetch_add(1, Ordering::Relaxed);
        }),
    );
    let base = windows_done();
    for _ in 0..10 {
        window_done();
    }
    assert_eq!(windows_done() - base, 10);
    // 10 ticks at every=3 crosses at least three multiples of 3.
    assert!(fired.load(Ordering::Relaxed) >= 3);
    reset();
    let before = fired.load(Ordering::Relaxed);
    window_done();
    window_done();
    window_done();
    assert_eq!(fired.load(Ordering::Relaxed), before, "reset removes hook");
}
