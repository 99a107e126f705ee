//! Allocation budget of the in-process fleet's packet path.
//!
//! A fault-free in-process fleet routes each packet to its shard and
//! the shard's decoder without building a request frame, a copy of
//! the packet or a live-victim list per packet. This test counts every
//! heap allocation a fixed `Fleet::push` loop makes and fails if the
//! count regrows past the budget, so an owned per-packet frame or a
//! per-packet live-set `Vec` cannot land silently.
//!
//! The counting allocator counts on the thread that runs the loop
//! only, so concurrent test-harness threads do not disturb the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use wm_capture::time::{Duration, SimTime};
use wm_core::{IntervalClassifier, WhiteMirrorConfig};
use wm_fleet::{merge_taps, Fleet, FleetConfig, TapPacket};
use wm_sim::{run_session, SessionConfig, SessionOutput};
use wm_story::bandersnatch::tiny_film;
use wm_story::{Choice, ViewerScript};

/// Allocations (including reallocations) of the push loop below: the
/// measured count plus 10% headroom. Lower it when the packet path
/// gets leaner; raising it needs a reason.
const BUDGET: u64 = 676;

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

fn session(seed: u64, choices: &[Choice]) -> SessionOutput {
    let graph = Arc::new(tiny_film());
    let script = ViewerScript::from_choices(choices, Duration::from_millis(900));
    run_session(&SessionConfig::fast(graph, seed, script)).unwrap()
}

/// Eight victims, each a tiny-film session offset by two sim-seconds.
fn victim_stream() -> Vec<TapPacket> {
    let picks = [Choice::Default, Choice::NonDefault];
    let taps: Vec<Vec<TapPacket>> = (0..8u32)
        .map(|v| {
            let pick = |bit: u32| picks[(v >> bit) as usize & 1];
            let choices = [pick(0), pick(1), pick(2)];
            let out = session(700 + v as u64, &choices);
            let offset = v as u64 * 2_000_000;
            out.trace
                .packets
                .iter()
                .map(|p| (SimTime(p.time.micros() + offset), v, p.frame.clone()))
                .collect()
        })
        .collect();
    merge_taps(&taps)
}

#[test]
fn fleet_push_loop_stays_within_its_allocation_budget() {
    let train = session(100, &[Choice::NonDefault, Choice::Default]);
    let clf = IntervalClassifier::train(&train.labels, WhiteMirrorConfig::DEFAULT_SLACK).unwrap();
    let stream = victim_stream();
    let mut fleet = Fleet::new(FleetConfig::scaled(4, 20), clf, Arc::new(tiny_film())).unwrap();

    let ((), allocations) = count_allocations(|| {
        for (t, v, frame) in &stream {
            fleet.push(*t, *v, frame);
        }
    });
    let packets = stream.len() as u64;
    let stats = fleet.stats();
    eprintln!("{allocations} allocations for {packets} packets");
    assert!(packets > 1_000, "the fleet really ran ({packets} packets)");
    assert!(stats.checkpoints > 0, "the loop crosses checkpoint ticks");
    assert_eq!(stats.packets_lost, 0);
    assert!(
        allocations <= BUDGET,
        "{allocations} allocations exceed the budget of {BUDGET}"
    );
}
