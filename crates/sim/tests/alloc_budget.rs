//! Allocation budget of one victim session.
//!
//! The session's steady-state data path (TCP segmentation and
//! reassembly, the capture tap hand-off, HTTP framing, padded POSTs)
//! allocates per message, not per byte or per segment copy. This test
//! counts every heap allocation one fixed harness-scale session makes
//! and fails if the count regrows past the budget, so a reintroduced
//! per-segment copy or per-header string cannot land silently.
//!
//! The counting allocator counts on the thread that runs the session
//! only, so concurrent test-harness threads do not disturb the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use wm_player::ViewerScript;
use wm_sim::{run_session, SessionConfig};

/// Allocations (including reallocations) of the session below: the
/// measured count plus 10% headroom. Lower it when the data path gets
/// leaner; raising it needs a reason.
const BUDGET: u64 = 13_081;

struct Counting;

thread_local! {
    /// Allocations on this thread while counting is on (`None` = off).
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn tally() {
    // `try_with`: the slot may already be gone during thread teardown.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: `ptr` came from `System`; arguments forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).unwrap_or(0);
    (out, n)
}

#[test]
fn one_harness_session_stays_within_its_allocation_budget() {
    // The harness scales every benchmark runs at (see `wm-bench`):
    // Bandersnatch at 40× playback, media bytes divided by 1024.
    let graph = Arc::new(wm_story::bandersnatch::bandersnatch());
    let mut cfg = SessionConfig::baseline(graph, 16_100, ViewerScript::sample(16_100, 14, 0.5));
    cfg.media_scale = 1024;
    cfg.player.time_scale = 40;

    let (out, allocations) = count_allocations(|| run_session(&cfg).expect("session completes"));
    let packets = out.trace.len() as u64;
    eprintln!("{allocations} allocations for {packets} captured packets");
    assert!(
        packets > 1_000,
        "the session really streamed ({packets} packets)"
    );
    assert!(
        allocations <= BUDGET,
        "{allocations} allocations exceed the budget of {BUDGET}"
    );
}
