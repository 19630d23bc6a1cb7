//! A counting global allocator for the traced run's allocation probe.
//!
//! Counting is off unless a probe turns it on, and only allocations of
//! the calling thread are counted, so the untraced runs pay one relaxed
//! load per allocation and the counts do not depend on other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

pub struct CountingAlloc;

/// Publishes nothing but "count now": `Relaxed` suffices.
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// `(counting on this thread, allocations counted)`. `const`
    /// initializer: no lazy TLS set-up inside the allocator.
    static THREAD: Cell<(bool, u64)> = const { Cell::new((false, 0)) };
}

#[inline]
fn bump() {
    if ENABLED.load(Ordering::Relaxed) {
        // `try_with` tolerates TLS teardown.
        let _ = THREAD.try_with(|c| {
            let (on, n) = c.get();
            if on {
                c.set((on, n + 1));
            }
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// counter touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract
        // for `layout`, which is exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by
        // `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr`/`layout` come from `System` (see `dealloc`) and
        // the caller guarantees `new_size` is valid for `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (including reallocations) the calling thread makes
/// while running `f`.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ENABLED.store(true, Ordering::Relaxed);
    THREAD.with(|c| c.set((true, 0)));
    let out = f();
    let n = THREAD.with(|c| {
        let (_, n) = c.get();
        c.set((false, 0));
        n
    });
    (out, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_exactly_the_allocations_of_the_closure() {
        let (v, n) = count_allocs(|| {
            let mut v: Vec<u64> = Vec::with_capacity(4);
            v.push(1);
            std::hint::black_box(v)
        });
        assert_eq!(v, vec![1]);
        assert_eq!(n, 1);
        let (_, none) = count_allocs(|| std::hint::black_box(3 + 4));
        assert_eq!(none, 0);
    }
}
