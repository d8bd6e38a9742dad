//! Golden pin of the simulated clock.
//!
//! Every corpus script runs on three machines — specialized tree-walker,
//! specialized VM (both with analysis facts attached) and the all-software
//! baseline — for two passes over the corpus on one machine, so the second
//! pass sees whatever warm state the first left behind (hardware hash table,
//! heap free lists, regex reuse table, and any host-side caches). For each
//! run the test records the simulated µops and their per-category split.
//!
//! The expected table in `golden/sim_uops.txt` was captured before the
//! host-side bookkeeping (profiler slots, dense fact tables, shared regex
//! DFAs) was optimized. Host optimizations must never move the simulated
//! clock: if this test fails, a host-side change leaked into the model.
//! A deliberate change to the cost model regenerates the table from the
//! failure message.

use php_runtime::profile::Category;
use phpaccel_core::{Engine, PhpMachine};
use std::fmt::Write as _;
use workloads::php_corpus::{prepare, ENTRIES};

const GOLDEN: &str = include_str!("golden/sim_uops.txt");

/// The three machines the table covers: (label, machine, facts attached).
fn machines() -> [(&'static str, PhpMachine, bool); 3] {
    let mut vm = PhpMachine::specialized();
    vm.set_engine(Engine::Vm);
    [
        ("spec-tree", PhpMachine::specialized(), true),
        ("spec-vm", vm, true),
        ("baseline", PhpMachine::baseline(), false),
    ]
}

fn render() -> String {
    let scripts: Vec<_> = ENTRIES.iter().map(prepare).collect();
    let mut out = String::from("# machine pass script total");
    for cat in Category::ALL {
        write!(out, " {}", cat.label()).unwrap();
    }
    out.push('\n');
    for (label, mut m, with_facts) in machines() {
        for pass in 0..2 {
            for s in &scripts {
                m.ctx().profiler().reset();
                s.run(&mut m, with_facts);
                m.recover_request();
                let prof = m.ctx().profiler();
                let split = prof.category_breakdown();
                write!(
                    out,
                    "{label} {pass} {} {}",
                    s.entry().name,
                    prof.total_uops()
                )
                .unwrap();
                for cat in Category::ALL {
                    write!(out, " {}", split.get(&cat).copied().unwrap_or(0)).unwrap();
                }
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn host_optimizations_never_move_the_simulated_clock() {
    let actual = render();
    let diff: Vec<String> = GOLDEN
        .lines()
        .zip(actual.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want: {want}\n   got: {got}"))
        .collect();
    assert!(
        diff.is_empty() && GOLDEN.lines().count() == actual.lines().count(),
        "simulated µops moved ({} differing rows):\n{}\nfull table:\n{actual}",
        diff.len(),
        diff.join("\n")
    );
}
