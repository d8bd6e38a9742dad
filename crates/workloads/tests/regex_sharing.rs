//! Shared regex clones must cost exactly what a cold regex costs.
//!
//! Clones of a compiled [`Regex`] share one lazily built DFA and prefilter,
//! so a pattern compiled at analysis time stays warm across calls and
//! requests. That warmth is host-side only: for every pattern the corpus
//! precompiles, a warm shared clone must return the same matches and the
//! same [`ScanStats`] — the simulated cost — as a freshly compiled regex.

use phpaccel_core::{Engine, PhpMachine};
use regex_engine::Regex;
use workloads::php_corpus::{prepare, ENTRIES};

/// Every scan entry point, with its simulated cost, as one comparable value.
fn scan_all(re: &Regex, subject: &[u8]) -> String {
    let (found, s1) = re.is_match(subject);
    let (all, s2) = re.find_all(subject);
    let (replaced, n, s3) = re.replace_all(subject, b"#");
    let (mid, s4) = re.find_at(subject, subject.len() / 2);
    let (at0, b0) = re.match_at(subject, 0);
    format!("{found} {s1:?} {all:?} {s2:?} {replaced:?} {n} {s3:?} {mid:?} {s4:?} {at0:?} {b0}")
}

#[test]
fn warm_shared_clones_cost_the_same_as_cold_regexes() {
    let scripts: Vec<_> = ENTRIES.iter().map(prepare).collect();
    // Warm every precompiled pattern the way serving does: run each script
    // on both engines, several times, through the shared handles.
    for engine in [Engine::TreeWalk, Engine::Vm] {
        let mut m = PhpMachine::specialized();
        m.set_engine(engine);
        for _ in 0..3 {
            for s in &scripts {
                s.run(&mut m, true);
                m.recover_request();
            }
        }
    }
    let mut subjects: Vec<Vec<u8>> = ENTRIES
        .iter()
        .map(|e| e.source.as_bytes().to_vec())
        .collect();
    let mut m = PhpMachine::baseline();
    subjects.extend(scripts.iter().map(|s| s.run(&mut m, false)));
    subjects.extend(
        [
            &b""[..],
            b"it's a \"quoted\" <b>tag</b>\nline two",
            b"https://localhost/?author=admin&x=1",
            b"   padded   words   and 12345 digits  ",
        ]
        .map(<[u8]>::to_vec),
    );

    let (mut patterns, mut warmed) = (0, 0);
    for s in &scripts {
        for shared in &s.vm_unit(true, true).regexes {
            patterns += 1;
            let warm = shared.clone();
            if warm.fsm_states() > 1 {
                warmed += 1;
            }
            for subject in &subjects {
                let cold = Regex::new(warm.pattern()).expect("corpus pattern compiles");
                assert_eq!(
                    scan_all(&warm, subject),
                    scan_all(&cold, subject),
                    "pattern {:?} in {}",
                    warm.pattern(),
                    s.entry().name
                );
            }
        }
    }
    assert!(patterns > 0, "the corpus precompiles at least one pattern");
    assert!(warmed > 0, "serving left no shared automaton warm");
}
