//! A replay snapshot costs a cursor, not the key space.
//!
//! A source clones its driver — stream included — at every window close.
//! Over a 100 k-key Zipf stream the sampler's tables are 2.4 MB; they are
//! immutable, so a snapshot must share them and copy only what a replay
//! re-derives frames from: the RNG, the cursors and the partitioner (a few
//! KB). A counting allocator holds the source to that.
//!
//! One test per binary on purpose: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use slb_core::PartitionerKind;
use slb_engine::windows::source_stream;
use slb_engine::{
    run_source_stage, ChannelClosed, EngineConfig, SourceControlEvent, SourceMessage, TupleSender,
};
use slb_telemetry::HopTelemetry;
use slb_workloads::KeyId;

/// Bytes requested from the allocator so far (growth only for a `realloc`).
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let growth = new_size.saturating_sub(layout.size());
        ALLOCATED.fetch_add(growth as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A worker that takes every frame and hands batch buffers straight back,
/// so what the source allocates per window is the snapshot, not the batches.
#[derive(Clone, Default)]
struct Recycling(Arc<Mutex<Vec<Vec<KeyId>>>>);

impl TupleSender for Recycling {
    fn send(&self, message: SourceMessage) -> Result<(), ChannelClosed> {
        if let SourceMessage::Batch(batch) = message {
            self.0.lock().unwrap().push(batch.keys);
        }
        Ok(())
    }

    fn take_recycled(&self) -> Option<Vec<KeyId>> {
        self.0.lock().unwrap().pop()
    }
}

const WINDOWS: u64 = 32;
const PER_CLOSE_BUDGET: u64 = 64 * 1024;

#[test]
fn a_window_close_allocates_kilobytes_not_the_key_space() {
    let cfg = EngineConfig {
        sources: 1,
        workers: 8,
        keys: 100_000,
        messages: WINDOWS * 4_096,
        service_time_us: 0,
        window_size: 4_096,
        ..EngineConfig::smoke(PartitionerKind::DChoices, 1.4)
    };
    let plan = cfg.stage_plan();
    // Built once, outside the measurement: the tables are set-up cost.
    let stream = source_stream(&cfg, 0);
    let senders = vec![Recycling::default(); plan.spawned_workers];
    // An in-process control whose workers have all left: the source still
    // snapshots at every close, and is released at its first poll.
    let (workers, control) = mpsc::channel::<SourceControlEvent>();
    drop(workers);
    let hop = HopTelemetry::default();

    let before = ALLOCATED.load(Ordering::Relaxed);
    let report = run_source_stage(&plan, 0, |_| stream.clone(), &senders, control, &hop);
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;

    assert_eq!(report.sent, cfg.messages);
    let per_close = allocated / WINDOWS;
    assert!(
        per_close < PER_CLOSE_BUDGET,
        "{per_close} bytes allocated per window close ({allocated} over {WINDOWS} windows): \
         a snapshot is copying the sampler's tables"
    );
}
