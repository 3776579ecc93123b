//! The counting allocator: the benchmark's only `unsafe`, and the source of
//! `peak_mem_mb`, `alloc.allocs_per_op` and `alloc.bytes_per_op`.
//!
//! It forwards every request to [`System`] and keeps four process-wide
//! statistics. They publish no other data, so every access is `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`], counting live bytes, their peak, allocation
/// calls and bytes requested.
pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    // The peak moves on few allocations; a plain load skips the locked
    // read-modify-write on all the others.
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
    BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every method hands the caller's layout and pointer to `System`
// unchanged and returns `System`'s answer unchanged, so `System`'s own
// `GlobalAlloc` guarantees carry over; the counters touch no allocated
// memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is passed on as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only ever returns `System` pointers.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout` and that `new_size` is valid for its alignment.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            // A failed realloc leaves the old block live, so only a
            // successful one moves the counters.
            ALLOCS.fetch_add(1, Relaxed);
            let old_size = layout.size();
            if new_size >= old_size {
                grew(new_size - old_size);
            } else {
                LIVE.fetch_sub(old_size - new_size, Relaxed);
            }
        }
        new_ptr
    }
}

/// The counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Bytes allocated and not yet freed.
    pub live: usize,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: usize,
    /// Calls to `alloc`, `alloc_zeroed` and `realloc` that succeeded.
    pub allocs: u64,
    /// Bytes requested by those calls (a `realloc` counts its growth).
    pub bytes: u64,
}

/// Reads the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Lowers the peak to the current live level, so the next [`snapshot`]
/// reports the peak of what ran in between.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCK: usize = 64 << 20;

    /// Tests run on parallel threads and share the process-wide counters;
    /// the other tests of this crate hold far less than this at a time.
    const OTHERS: usize = 8 << 20;

    fn near(actual: usize, expected: usize) -> bool {
        actual.abs_diff(expected) <= OTHERS
    }

    #[test]
    fn a_known_vec_moves_live_peak_and_count() {
        let before = snapshot();
        reset_peak();
        let mut v: Vec<u8> = Vec::with_capacity(BLOCK);
        v.push(1);
        let held = snapshot();
        assert!(near(held.live, before.live + BLOCK));
        assert!(near(held.peak, before.live + BLOCK));
        assert!(held.allocs > before.allocs);
        assert!(held.bytes >= before.bytes + BLOCK as u64);

        // `realloc`: live follows the new size and the call is counted.
        v.reserve_exact(2 * BLOCK);
        let grown = snapshot();
        assert!(near(grown.live, before.live + 2 * BLOCK));
        assert!(grown.allocs > held.allocs);
        assert!(grown.bytes >= held.bytes + BLOCK as u64);

        v.shrink_to(BLOCK / 2);
        assert!(near(snapshot().live, before.live + BLOCK / 2));

        drop(v);
        let after = snapshot();
        assert!(near(after.live, before.live));
        // The peak outlives the block until it is reset.
        assert!(after.peak >= before.live + 2 * BLOCK - OTHERS);
        reset_peak();
        assert!(near(snapshot().peak, before.live));
    }
}
