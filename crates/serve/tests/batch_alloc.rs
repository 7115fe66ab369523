//! Decoding a BATCH frame allocates per distinct label, not per edge: a
//! counting global allocator holds `Request::decode` of an n-edge frame
//! over k labels to O(k) allocations, where
//! `Message::decode` makes a label `String` for every edge; and reading a
//! frame into a reused buffer allocates nothing once the buffer has held
//! a frame as long.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sgq_serve::protocol::{read_frame_into, Message, Request, WireEdge};

/// Counts the allocations the current thread makes while `COUNTING` is
/// set; other threads (the test harness) are not counted.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The allocations `f` makes on this thread, and its value.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.with(Cell::get), out)
}

/// The payload of a BATCH frame of `n` edges cycling through `k` labels.
fn batch_payload(n: u64, k: u64) -> Vec<u8> {
    let labels = ["a2q", "c2q", "c2a"];
    let edges = (0..n)
        .map(|i| WireEdge {
            delete: i % 8 == 7,
            src: i,
            trg: i + 1,
            t: i,
            label: labels[(i % k) as usize].to_string(),
        })
        .collect();
    Message::Batch { edges }.encode().split_off(4)
}

#[test]
fn batch_decode_allocates_per_label_not_per_edge() {
    const N: u64 = 4096;
    for k in [1, 3] {
        let payload = batch_payload(N, k);
        let (rows_allocs, req) = allocations(|| Request::decode(&payload).unwrap());
        let Request::Edges(batch) = req else {
            panic!("a BATCH decodes to rows");
        };
        assert_eq!(
            (batch.rows.len(), batch.labels.len()),
            (N as usize, k as usize)
        );
        // The row vector, the label table and one string per label: a
        // handful, however many edges.
        assert!(
            rows_allocs <= 2 + k as usize,
            "k = {k}: {rows_allocs} allocations for {N} edges"
        );
        // The expanded form pays a label string per edge.
        let (message_allocs, _) = allocations(|| Message::decode(&payload).unwrap());
        assert!(
            message_allocs >= N as usize,
            "k = {k}: Message::decode made {message_allocs} allocations"
        );
    }
}

#[test]
fn reading_a_later_batch_into_the_reused_buffer_allocates_only_its_rows_and_labels() {
    const N: u64 = 4096;
    for k in [1, 3] {
        // A longer frame first, then the one measured, as a connection's
        // reader sees them.
        let mut stream = Vec::new();
        for payload in [batch_payload(N + 64, 1), batch_payload(N, k)] {
            stream.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            stream.extend_from_slice(&payload);
        }
        let mut r: &[u8] = &stream;
        let mut buf = Vec::new();
        assert!(read_frame_into(&mut r, &mut buf).unwrap());
        let (allocs, req) = allocations(|| {
            assert!(read_frame_into(&mut r, &mut buf).unwrap());
            Request::decode(&buf).unwrap()
        });
        let Request::Edges(batch) = req else {
            panic!("a BATCH decodes to rows");
        };
        assert_eq!(batch.rows.len(), N as usize);
        assert!(
            allocs <= 2 + k as usize,
            "k = {k}: reading and decoding made {allocs} allocations"
        );
    }
}
