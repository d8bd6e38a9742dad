//! Host-allocation budget of the simulator's hot path.
//!
//! The simulated clock never sees host allocations, but the host does:
//! `malloc`/`free` were the largest host cost of serving a request. This
//! test counts the allocator calls (`alloc`, `alloc_zeroed`, `realloc`) the
//! current thread makes and pins two properties:
//!
//! 1. Reading and writing existing variables allocates nothing. A loop over
//!    int variables must make the same number of allocations at 100 and at
//!    200 iterations, on both engines, on the specialized and the baseline
//!    machine, with and without analysis facts.
//! 2. A verified request stays within its measured allocation budget. One
//!    verified request is what the serving layer does per request: the
//!    corpus script on the specialized tree-walker, the same script on the
//!    all-software reference machine, and the request-boundary reset of
//!    both. The corpus mean must stay within 10% of the figure measured
//!    when the budget was set.
//!
//! The counter is a `const` thread-local, so test threads running in
//! parallel never count each other's allocations.

use phpaccel_core::{Engine, PhpMachine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::php_corpus::{prepare, CorpusEntry, PreparedScript, ENTRIES};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// thread-local `Cell` without a destructor, so counting never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the current thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations per verified request, corpus mean, measured with this test
/// once variable reads and writes, the hardware hash-table model and string
/// concatenation stopped making avoidable allocations. Before that change
/// the same measurement read 496.0.
const VERIFIED_REQUEST_ALLOCS: f64 = 225.9;

/// A script whose loop only reads and writes int variables that already
/// exist after the first iteration.
fn int_loop(iterations: u32) -> PreparedScript {
    let source = format!(
        "$i = 0;\n$a = 1;\n$b = 2;\n\
         while ($i < {iterations}) {{\n    $a = $a + $b;\n    $b = $a - $b;\n    $i = $i + 1;\n}}\n\
         echo 'done';\n"
    );
    let entry = Box::leak(Box::new(CorpusEntry {
        app: "alloc-budget",
        name: "int-loop",
        source: Box::leak(source.into_boxed_str()),
        needs_request_vars: false,
    }));
    prepare(entry)
}

fn machine(specialized: bool, engine: Engine) -> PhpMachine {
    let mut m = if specialized {
        PhpMachine::specialized()
    } else {
        PhpMachine::baseline()
    };
    m.set_engine(engine);
    m
}

/// Allocations of one run of `script` on a machine warmed by one earlier
/// run of the same script.
fn warm_run_allocations(script: &PreparedScript, m: &mut PhpMachine, facts: bool) -> u64 {
    assert_eq!(script.run(m, facts), b"done");
    m.recover_request();
    allocations_during(|| {
        script.run(m, facts);
    })
}

#[test]
fn variable_access_in_a_loop_allocates_nothing_per_iteration() {
    let short = int_loop(100);
    let long = int_loop(200);
    for engine in [Engine::TreeWalk, Engine::Vm] {
        for specialized in [true, false] {
            for facts in [false, true] {
                let at_100 = warm_run_allocations(&short, &mut machine(specialized, engine), facts);
                let at_200 = warm_run_allocations(&long, &mut machine(specialized, engine), facts);
                assert_eq!(
                    at_100, at_200,
                    "{engine:?} specialized={specialized} facts={facts}: \
                     {at_100} allocations at 100 iterations, {at_200} at 200"
                );
            }
        }
    }
}

#[test]
fn verified_request_stays_within_its_allocation_budget() {
    let scripts: Vec<PreparedScript> = ENTRIES.iter().map(prepare).collect();
    let mut primary = PhpMachine::specialized();
    let mut reference = PhpMachine::baseline();
    let mut verified_request = |s: &PreparedScript| {
        let out = s.run(&mut primary, true);
        let expected = s.run(&mut reference, true);
        assert_eq!(
            out,
            expected,
            "{} diverged from the reference",
            s.entry().name
        );
        primary.recover_request();
        reference.recover_request();
    };
    // One warm-up pass: first sightings (profiler slots, regex DFA states,
    // hardware-table warm state) belong to start-up, not to a request.
    for s in &scripts {
        verified_request(s);
    }
    const PASSES: usize = 4;
    let total = allocations_during(|| {
        for _ in 0..PASSES {
            for s in &scripts {
                verified_request(s);
            }
        }
    });
    let mean = total as f64 / (PASSES * scripts.len()) as f64;
    println!("allocations per verified request (corpus mean): {mean:.1}");
    let budget = VERIFIED_REQUEST_ALLOCS * 1.10;
    assert!(
        mean <= budget,
        "{mean:.1} allocations per verified request exceed the budget of {budget:.1} \
         ({VERIFIED_REQUEST_ALLOCS} measured + 10%)"
    );
}
