//! The three traffic mixes and the seeded request streams they send.

use phpaccel_core::{Engine, PhpMachine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{BreakerConfig, HttpConfig, MemoCache, SandboxConfig, Server};
use std::sync::Arc;
use workloads::php_corpus::CorpusCache;
use workloads::{SessionConfig, SessionModel};

/// The four cheapest corpus scripts (7–21 µs each on the tree-walker),
/// which `tiny-scraped` cycles so per-request fixed costs dominate.
const TINY_SCRIPTS: [&str; 4] = ["lint-demo", "session-token", "search-echo", "node-render"];

/// Requests generated per traffic connection; a client wraps around when
/// it runs out, so the stream's script mix is fixed by the seed alone.
const STREAM_LEN: usize = 1 << 16;

/// What the traffic connections send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Zipfian session traffic (64 users) over all corpus scripts.
    Session,
    /// A shuffled cycle over [`TINY_SCRIPTS`].
    Tiny,
}

/// One benchmark workload: a server configuration plus a traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// PHP worker threads.
    pub workers: usize,
    /// Engine on every worker machine.
    pub engine: Engine,
    /// Reference replay on every worker.
    pub reference: bool,
    /// Shared memo tier (`MemoCache::new(16)`).
    pub memo: bool,
    /// Traffic connections (closed loop, one load-generator thread each).
    pub connections: usize,
    /// Traffic mix.
    pub traffic: Traffic,
    /// Whether an operator connection scrapes `/health` + `/metrics`
    /// every 100 ms during the measured window.
    pub operator: bool,
}

/// Every workload the benchmark knows.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "verified-mix",
        workers: 1,
        engine: Engine::TreeWalk,
        reference: true,
        memo: false,
        connections: 2,
        traffic: Traffic::Session,
        operator: false,
    },
    Workload {
        name: "tiny-scraped",
        workers: 1,
        engine: Engine::TreeWalk,
        reference: false,
        memo: false,
        connections: 1,
        traffic: Traffic::Tiny,
        operator: true,
    },
    Workload {
        name: "memo-vm",
        workers: 2,
        engine: Engine::Vm,
        reference: true,
        memo: true,
        connections: 2,
        traffic: Traffic::Session,
        operator: false,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The server configuration: the shipped loopback defaults at this
    /// worker count, with the workload's engine, replay and memo choices.
    pub fn http_config(&self) -> HttpConfig {
        let mut cfg = HttpConfig::loopback(self.workers);
        cfg.engine = self.engine;
        cfg.reference = self.reference;
        cfg.memo = self.memo.then(|| Arc::new(MemoCache::new(16)));
        cfg
    }

    /// One seeded stream of corpus-script indexes per traffic connection.
    /// The same seed always gives the same streams.
    pub fn streams(&self, corpus: &CorpusCache, seed: u64) -> Vec<Vec<usize>> {
        (0..self.connections)
            .map(|c| {
                let seed = split_mix(seed ^ split_mix(c as u64 + 1));
                match self.traffic {
                    Traffic::Session => {
                        let mut model = SessionModel::new(SessionConfig {
                            seed,
                            ..SessionConfig::default()
                        });
                        model
                            .generate(STREAM_LEN, corpus.len())
                            .iter()
                            .map(|r| r.script)
                            .collect()
                    }
                    Traffic::Tiny => tiny_stream(corpus, seed),
                }
            })
            .collect()
    }
}

/// Global request `k` of the interleaved streams: connection `k % n`
/// sends its `k / n`-th request. The traced replay walks requests in this
/// order, so it sees the mix the loopback clients sent.
pub fn interleaved(streams: &[Vec<usize>], k: u64) -> usize {
    let n = streams.len() as u64;
    let s = &streams[(k % n) as usize];
    s[((k / n) % s.len() as u64) as usize]
}

/// SplitMix64 finalizer, used to derive independent per-connection seeds.
pub fn split_mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn tiny_stream(corpus: &CorpusCache, seed: u64) -> Vec<usize> {
    let mut ids: Vec<usize> = TINY_SCRIPTS
        .iter()
        .map(|name| {
            corpus
                .scripts()
                .iter()
                .position(|s| s.entry().name == *name)
                .unwrap_or_else(|| panic!("corpus has no script {name}"))
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(STREAM_LEN);
    while out.len() < STREAM_LEN {
        // Fisher–Yates: every block of four is a fresh permutation.
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..i + 1));
        }
        out.extend_from_slice(&ids);
    }
    out
}

/// The request bytes a client sends for each corpus script.
pub fn request_bytes(corpus: &CorpusCache) -> Vec<Vec<u8>> {
    corpus
        .scripts()
        .iter()
        .map(|s| {
            format!(
                "GET /run/{} HTTP/1.1\r\nhost: loopback\r\n\r\n",
                s.entry().name
            )
            .into_bytes()
        })
        .collect()
}

/// Serves every corpus script once through a direct [`Server`] on the
/// tree-walker with reference replay and reset between requests, and
/// returns the response bytes per script: the oracle every HTTP response
/// must equal, whatever engine or memo tier the workload runs.
pub fn expected_bodies(corpus: &CorpusCache) -> Result<Vec<Vec<u8>>, String> {
    let mut server = Server::new(
        PhpMachine::specialized(),
        BreakerConfig::default(),
        SandboxConfig::unlimited(),
    )
    .with_reference(PhpMachine::baseline());
    let mut expected = Vec::with_capacity(corpus.len());
    for (i, script) in corpus.scripts().iter().enumerate() {
        let record = server.serve_indexed(i as u64, &mut |m, _req| script.run(m, true));
        if record.outcome.status_code() != 200 {
            return Err(format!("direct serving of {} failed", script.entry().name));
        }
        expected.push(record.response);
        server.recover_between_requests();
    }
    if server.stats().mismatches != 0 {
        return Err("direct serving disagreed with its reference replay".into());
    }
    Ok(expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_function_of_the_seed() {
        let corpus = CorpusCache::build();
        for wl in WORKLOADS {
            let a = wl.streams(&corpus, 7);
            assert_eq!(
                a,
                wl.streams(&corpus, 7),
                "{}: same seed, same stream",
                wl.name
            );
            assert_ne!(
                a,
                wl.streams(&corpus, 8),
                "{}: seed changes the stream",
                wl.name
            );
            assert_eq!(a.len(), wl.connections);
            assert!(a.iter().flatten().all(|&s| s < corpus.len()));
        }
    }

    #[test]
    fn tiny_stream_cycles_the_four_cheapest_scripts() {
        let corpus = CorpusCache::build();
        let stream = tiny_stream(&corpus, 3);
        for block in stream.chunks(4) {
            let mut names: Vec<&str> = block
                .iter()
                .map(|&i| corpus.scripts()[i].entry().name)
                .collect();
            names.sort_unstable();
            let mut want = TINY_SCRIPTS.to_vec();
            want.sort_unstable();
            assert_eq!(names, want, "every block of four is a permutation");
        }
    }

    #[test]
    fn interleaving_alternates_connections() {
        let streams = vec![vec![10, 11, 12], vec![20, 21]];
        let got: Vec<usize> = (0..8).map(|k| interleaved(&streams, k)).collect();
        assert_eq!(got, vec![10, 20, 11, 21, 12, 20, 10, 21]);
    }
}
