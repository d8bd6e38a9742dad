//! Leaf-function profiler.
//!
//! The paper's analysis rests on `perf`-style leaf-function profiles of the
//! PHP applications (Figures 1, 3, 4, 5). Our substitution is an in-runtime
//! profiler: every runtime library operation attributes its simulated cost
//! (micro-ops, branches, loads, stores) to a named leaf function tagged with
//! one of the paper's activity categories.
//!
//! Costs are *simulated micro-ops*, not wall-clock time; the
//! `uarch-sim` crate converts them to cycles through a core model.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Activity category of a leaf function.
///
/// The first four are the paper's acceleration targets (§3, Figure 4); the
/// rest cover abstraction overheads with known prior solutions and the
/// remainder of the execution profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Hash map access (GET/SET/free/foreach walks).
    HashMap,
    /// Heap management (malloc/free slab paths).
    Heap,
    /// String manipulation (copy/match/modify library functions).
    String,
    /// Regular expression processing.
    Regex,
    /// Dynamic type checks (addressed by checked-load \[22\]).
    TypeCheck,
    /// Reference counting (addressed by hardware refcounting \[46\]).
    RefCount,
    /// JIT-compiled application code (the interpreter's own work here).
    JitCode,
    /// Everything else (VM plumbing, request handling, ...).
    Other,
}

impl Category {
    /// All categories in presentation order.
    pub const ALL: [Category; 8] = [
        Category::HashMap,
        Category::Heap,
        Category::String,
        Category::Regex,
        Category::TypeCheck,
        Category::RefCount,
        Category::JitCode,
        Category::Other,
    ];

    /// Short label used by the figure harnesses.
    pub fn label(self) -> &'static str {
        match self {
            Category::HashMap => "hash-map",
            Category::Heap => "heap",
            Category::String => "string",
            Category::Regex => "regex",
            Category::TypeCheck => "type-check",
            Category::RefCount => "refcount",
            Category::JitCode => "jit-code",
            Category::Other => "other",
        }
    }

    /// Is this one of the four acceleration targets of §4?
    pub fn is_accel_target(self) -> bool {
        matches!(
            self,
            Category::HashMap | Category::Heap | Category::String | Category::Regex
        )
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cost of one invocation of a leaf function, in simulated micro-ops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Total micro-ops.
    pub uops: u64,
    /// Conditional/indirect branches among them.
    pub branches: u64,
    /// Data loads among them.
    pub loads: u64,
    /// Data stores among them.
    pub stores: u64,
}

impl OpCost {
    /// A pure-ALU cost.
    pub fn alu(uops: u64) -> Self {
        OpCost {
            uops,
            ..Default::default()
        }
    }

    /// A mixed cost with typical library-routine proportions:
    /// ~22% branches (paper §2), ~30% loads, ~12% stores.
    pub fn mixed(uops: u64) -> Self {
        OpCost {
            uops,
            branches: uops * 22 / 100,
            loads: uops * 30 / 100,
            stores: uops * 12 / 100,
        }
    }

    /// Component-wise sum.
    pub fn plus(self, other: OpCost) -> OpCost {
        OpCost {
            uops: self.uops + other.uops,
            branches: self.branches + other.branches,
            loads: self.loads + other.loads,
            stores: self.stores + other.stores,
        }
    }

    /// Scale every component by an integer factor.
    pub fn scaled(self, k: u64) -> OpCost {
        OpCost {
            uops: self.uops * k,
            branches: self.branches * k,
            loads: self.loads * k,
            stores: self.stores * k,
        }
    }
}

/// Accumulated statistics for one leaf function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncStats {
    /// Category tag.
    pub category: Option<Category>,
    /// Invocation count.
    pub calls: u64,
    /// Total cost across calls.
    pub cost: OpCost,
}

/// A snapshot row of the profile, sorted hottest-first by [`Profiler::leaf_profile`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Leaf function name.
    pub name: String,
    /// Category.
    pub category: Category,
    /// Invocations.
    pub calls: u64,
    /// Total micro-ops.
    pub uops: u64,
    /// Fraction of total profile micro-ops, in \[0, 1\].
    pub share: f64,
}

/// Work proven unnecessary by static analysis (the `php-analysis` crate) and
/// skipped at run time. These are *avoided* costs: nothing is charged to the
/// profile for them; the counters exist so experiments can report how much
/// dynamic-type-check and refcount traffic specialization removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticSavings {
    /// Dynamic type checks skipped because operand types were proven.
    pub type_checks_avoided: u64,
    /// Refcount increments skipped on proven-non-escaping temporaries.
    pub rc_incs_avoided: u64,
    /// Refcount decrements skipped on proven-non-escaping temporaries.
    pub rc_decs_avoided: u64,
    /// User-call boundaries crossed with an interprocedural summary in hand
    /// (facts survived instead of dropping to ⊤).
    pub summaries_applied: u64,
    /// `preg_*` compiles skipped because the analysis compiled the constant
    /// pattern ahead of time.
    pub regex_compiles_avoided: u64,
    /// Hardware heap size classes whose free lists were pre-seeded from
    /// statically known allocation sizes.
    pub heap_classes_preseeded: u64,
    /// Tainted-sink lints the attached analysis raised for the program.
    pub taint_lints_flagged: u64,
    /// Allocation sites the region analysis proved arena-safe (die at
    /// request end; served by the bump arena instead of free lists).
    pub arena_safe_sites: u64,
    /// Bytes reclaimed wholesale by O(1) arena epoch resets instead of
    /// per-block free-list teardown.
    pub arena_bytes_reclaimed: u64,
    /// µops the per-block end-of-request teardown would have cost, saved by
    /// arena epoch resets.
    pub teardown_uops_saved: u64,
    /// Opcodes executed by the compiled-bytecode VM (zero under the
    /// tree-walking engine).
    pub vm_ops_executed: u64,
    /// Fused superinstructions among the executed opcodes.
    pub vm_fused_ops: u64,
    /// Transient string allocations elided by fused opcodes (concat
    /// intermediates, echo-of-string materializations).
    pub vm_transients_elided: u64,
    /// Cross-request memo-cache hits: a memoizable call site answered from
    /// the shared tier instead of re-executing the callee.
    pub memo_hits: u64,
    /// Memoizable sites that executed because no entry (or a stale entry)
    /// was cached under their dependency key.
    pub memo_misses: u64,
    /// Results stored into the shared memo tier after a miss.
    pub memo_stores: u64,
    /// Memo entries invalidated by writes to variables in their read-sets.
    pub memo_invalidations: u64,
}

impl StaticSavings {
    /// Total avoided operations.
    pub fn total(&self) -> u64 {
        self.type_checks_avoided + self.rc_incs_avoided + self.rc_decs_avoided
    }

    /// Adds another tally into this one, counter by counter. Server pools
    /// use this to fold per-worker savings into a lossless total.
    pub fn accumulate(&mut self, other: &StaticSavings) {
        self.type_checks_avoided += other.type_checks_avoided;
        self.rc_incs_avoided += other.rc_incs_avoided;
        self.rc_decs_avoided += other.rc_decs_avoided;
        self.summaries_applied += other.summaries_applied;
        self.regex_compiles_avoided += other.regex_compiles_avoided;
        self.heap_classes_preseeded += other.heap_classes_preseeded;
        self.taint_lints_flagged += other.taint_lints_flagged;
        self.arena_safe_sites += other.arena_safe_sites;
        self.arena_bytes_reclaimed += other.arena_bytes_reclaimed;
        self.teardown_uops_saved += other.teardown_uops_saved;
        self.vm_ops_executed += other.vm_ops_executed;
        self.vm_fused_ops += other.vm_fused_ops;
        self.vm_transients_elided += other.vm_transients_elided;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.memo_stores += other.memo_stores;
        self.memo_invalidations += other.memo_invalidations;
    }
}

/// The profiler. Interior-mutable so that runtime operations can record
/// through a shared reference (`&RuntimeContext`).
///
/// `record` runs for every leaf operation, so its host cost matters even
/// though it models nothing: each distinct name gets one slot, found through
/// a small direct-mapped table keyed by the name's address (names are
/// almost always `&'static str` literals) and, on a miss there, through an
/// FNV-keyed name index. Only the first sighting of a name allocates. Every
/// address hit is confirmed by comparing the name's bytes, so a name built
/// in a reused buffer (same address, new contents) is never misattributed.
/// None of this bookkeeping feeds the simulated cost.
#[derive(Debug, Default)]
pub struct Profiler {
    inner: RefCell<ProfilerInner>,
}

/// Entries in the address-keyed fast table (a power of two).
const FAST_SLOTS: usize = 64;

/// One direct-mapped fast-table entry: a name address and its slot.
#[derive(Debug, Clone, Copy, Default)]
struct FastEntry {
    addr: usize,
    slot: u32,
}

/// FNV-1a, for the name index: short leaf names hash in a few cycles.
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug)]
struct ProfilerInner {
    /// One `(name, stats)` slot per distinct leaf function, in first-seen
    /// order.
    slots: Vec<(String, FuncStats)>,
    /// Name → index into `slots`.
    index: HashMap<String, u32, BuildHasherDefault<FnvHasher>>,
    /// Name address → slot, direct-mapped; `addr == 0` marks an empty entry.
    fast: [FastEntry; FAST_SLOTS],
    total: OpCost,
    enabled_depth: u32,
    savings: StaticSavings,
}

impl Default for ProfilerInner {
    fn default() -> Self {
        ProfilerInner {
            slots: Vec::new(),
            index: HashMap::default(),
            fast: [FastEntry::default(); FAST_SLOTS],
            total: OpCost::default(),
            enabled_depth: 0,
            savings: StaticSavings::default(),
        }
    }
}

impl ProfilerInner {
    /// The slot of `name`, creating it on first sight.
    fn slot_of(&mut self, name: &str) -> usize {
        let addr = name.as_ptr() as usize;
        let way = (addr ^ (addr >> 6) ^ (addr >> 12)) & (FAST_SLOTS - 1);
        let hit = self.fast[way];
        if hit.addr == addr && self.slots[hit.slot as usize].0 == name {
            return hit.slot as usize;
        }
        let slot = match self.index.get(name) {
            Some(&slot) => slot,
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push((name.to_owned(), FuncStats::default()));
                self.index.insert(name.to_owned(), slot);
                slot
            }
        };
        self.fast[way] = FastEntry { addr, slot };
        slot as usize
    }
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one invocation of leaf function `name` in `category` with `cost`.
    pub fn record(&self, name: &str, category: Category, cost: OpCost) {
        let mut inner = self.inner.borrow_mut();
        if inner.enabled_depth > 0 {
            return;
        }
        inner.total = inner.total.plus(cost);
        let slot = inner.slot_of(name);
        let entry = &mut inner.slots[slot].1;
        entry.category.get_or_insert(category);
        entry.calls += 1;
        entry.cost = entry.cost.plus(cost);
    }

    /// Temporarily disables recording (e.g. while replaying a trace).
    /// Must be balanced with [`Profiler::resume`].
    pub fn pause(&self) {
        self.inner.borrow_mut().enabled_depth += 1;
    }

    /// Re-enables recording after a [`Profiler::pause`].
    ///
    /// # Panics
    ///
    /// Panics if called without a matching `pause`.
    pub fn resume(&self) {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.enabled_depth > 0, "resume without pause");
        inner.enabled_depth -= 1;
    }

    /// Total micro-ops recorded so far.
    pub fn total_uops(&self) -> u64 {
        self.inner.borrow().total.uops
    }

    /// Total cost recorded so far.
    pub fn total_cost(&self) -> OpCost {
        self.inner.borrow().total
    }

    /// Number of distinct leaf functions observed.
    pub fn function_count(&self) -> usize {
        self.inner.borrow().slots.len()
    }

    /// Stats for one function, if it was ever recorded.
    pub fn function(&self, name: &str) -> Option<FuncStats> {
        let inner = self.inner.borrow();
        let slot = *inner.index.get(name)?;
        Some(inner.slots[slot as usize].1.clone())
    }

    /// Aggregated micro-ops per category.
    pub fn category_breakdown(&self) -> HashMap<Category, u64> {
        let inner = self.inner.borrow();
        let mut out = HashMap::new();
        for (_, stats) in &inner.slots {
            if let Some(cat) = stats.category {
                *out.entry(cat).or_insert(0) += stats.cost.uops;
            }
        }
        out
    }

    /// The leaf-function profile, hottest first (Figure 1 / Figure 3 input).
    pub fn leaf_profile(&self) -> Vec<ProfileRow> {
        let inner = self.inner.borrow();
        let total = inner.total.uops.max(1) as f64;
        let mut rows: Vec<ProfileRow> = inner
            .slots
            .iter()
            .map(|(name, s)| ProfileRow {
                name: name.clone(),
                category: s.category.unwrap_or(Category::Other),
                calls: s.calls,
                uops: s.cost.uops,
                share: s.cost.uops as f64 / total,
            })
            .collect();
        rows.sort_by(|a, b| b.uops.cmp(&a.uops).then_with(|| a.name.cmp(&b.name)));
        rows
    }

    /// Cumulative share covered by the hottest `n` functions (Figure 1's
    /// "about 100 functions account for about 65% of cycles").
    pub fn cumulative_share(&self, n: usize) -> f64 {
        self.leaf_profile().iter().take(n).map(|r| r.share).sum()
    }

    /// Clears all recorded data.
    pub fn reset(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.slots.clear();
        inner.index.clear();
        inner.fast = [FastEntry::default(); FAST_SLOTS];
        inner.total = OpCost::default();
        inner.savings = StaticSavings::default();
    }

    // -- statically avoided work ---------------------------------------------

    /// Notes a dynamic type check proven unnecessary and skipped.
    pub fn note_type_check_avoided(&self) {
        self.inner.borrow_mut().savings.type_checks_avoided += 1;
    }

    /// Notes a refcount increment proven unnecessary and skipped.
    pub fn note_rc_inc_avoided(&self) {
        self.inner.borrow_mut().savings.rc_incs_avoided += 1;
    }

    /// Notes a refcount decrement proven unnecessary and skipped.
    pub fn note_rc_dec_avoided(&self) {
        self.inner.borrow_mut().savings.rc_decs_avoided += 1;
    }

    /// Notes a call evaluated with an interprocedural summary attached.
    pub fn note_summary_applied(&self) {
        self.inner.borrow_mut().savings.summaries_applied += 1;
    }

    /// Notes a regex compile skipped thanks to analysis-time compilation.
    pub fn note_regex_compile_avoided(&self) {
        self.inner.borrow_mut().savings.regex_compiles_avoided += 1;
    }

    /// Notes `n` heap size classes pre-seeded from static allocation sizes.
    pub fn note_heap_classes_preseeded(&self, n: u64) {
        self.inner.borrow_mut().savings.heap_classes_preseeded += n;
    }

    /// Notes `n` tainted-sink lints flagged by the attached analysis.
    pub fn note_taint_lints(&self, n: u64) {
        self.inner.borrow_mut().savings.taint_lints_flagged += n;
    }

    /// Notes `n` allocation sites the region analysis proved arena-safe.
    pub fn note_arena_safe_sites(&self, n: u64) {
        self.inner.borrow_mut().savings.arena_safe_sites += n;
    }

    /// Notes one arena epoch reset: `bytes` reclaimed in O(1) and the
    /// `uops_saved` a per-block free-list teardown would have cost instead.
    pub fn note_arena_reset(&self, bytes: u64, uops_saved: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.savings.arena_bytes_reclaimed += bytes;
        inner.savings.teardown_uops_saved += uops_saved;
    }

    /// Notes one compiled-VM run: opcodes executed, fused superinstructions
    /// among them, and transient allocations those superinstructions elided.
    pub fn note_vm_execution(&self, ops: u64, fused: u64, transients_elided: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.savings.vm_ops_executed += ops;
        inner.savings.vm_fused_ops += fused;
        inner.savings.vm_transients_elided += transients_elided;
    }

    /// Notes one memo-cache hit: the memoized result was replayed and the
    /// callee body skipped.
    pub fn note_memo_hit(&self) {
        self.inner.borrow_mut().savings.memo_hits += 1;
    }

    /// Notes one memo-cache miss (the site executed normally).
    pub fn note_memo_miss(&self) {
        self.inner.borrow_mut().savings.memo_misses += 1;
    }

    /// Notes one result stored into the memo tier.
    pub fn note_memo_store(&self) {
        self.inner.borrow_mut().savings.memo_stores += 1;
    }

    /// Notes `n` memo entries invalidated by a dependency write.
    pub fn note_memo_invalidations(&self, n: u64) {
        self.inner.borrow_mut().savings.memo_invalidations += n;
    }

    /// Work skipped thanks to static analysis so far.
    pub fn static_savings(&self) -> StaticSavings {
        self.inner.borrow().savings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_function() {
        let p = Profiler::new();
        p.record("zend_hash_find", Category::HashMap, OpCost::mixed(90));
        p.record("zend_hash_find", Category::HashMap, OpCost::mixed(90));
        p.record("php_trim", Category::String, OpCost::alu(30));
        let f = p.function("zend_hash_find").unwrap();
        assert_eq!(f.calls, 2);
        assert_eq!(f.cost.uops, 180);
        assert_eq!(p.total_uops(), 210);
        assert_eq!(p.function_count(), 2);
    }

    #[test]
    fn leaf_profile_is_sorted_hottest_first() {
        let p = Profiler::new();
        p.record("cold", Category::Other, OpCost::alu(1));
        p.record("hot", Category::JitCode, OpCost::alu(100));
        p.record("warm", Category::String, OpCost::alu(10));
        let rows = p.leaf_profile();
        assert_eq!(rows[0].name, "hot");
        assert_eq!(rows[1].name, "warm");
        assert_eq!(rows[2].name, "cold");
        assert!((rows[0].share - 100.0 / 111.0).abs() < 1e-12);
    }

    #[test]
    fn cumulative_share_sums_top_n() {
        let p = Profiler::new();
        for i in 0..10 {
            p.record(&format!("f{i}"), Category::Other, OpCost::alu(10));
        }
        assert!((p.cumulative_share(5) - 0.5).abs() < 1e-12);
        assert!((p.cumulative_share(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn category_breakdown_aggregates() {
        let p = Profiler::new();
        p.record("a", Category::Heap, OpCost::alu(69));
        p.record("b", Category::Heap, OpCost::alu(37));
        p.record("c", Category::Regex, OpCost::alu(10));
        let m = p.category_breakdown();
        assert_eq!(m[&Category::Heap], 106);
        assert_eq!(m[&Category::Regex], 10);
        assert!(!m.contains_key(&Category::String));
    }

    #[test]
    fn pause_suppresses_recording() {
        let p = Profiler::new();
        p.pause();
        p.record("x", Category::Other, OpCost::alu(5));
        p.resume();
        assert_eq!(p.total_uops(), 0);
        p.record("x", Category::Other, OpCost::alu(5));
        assert_eq!(p.total_uops(), 5);
    }

    #[test]
    #[should_panic(expected = "resume without pause")]
    fn unbalanced_resume_panics() {
        Profiler::new().resume();
    }

    #[test]
    fn mixed_cost_proportions() {
        let c = OpCost::mixed(100);
        assert_eq!(c.branches, 22);
        assert_eq!(c.loads, 30);
        assert_eq!(c.stores, 12);
    }

    #[test]
    fn reset_clears_everything() {
        let p = Profiler::new();
        p.record("a", Category::Other, OpCost::alu(5));
        p.note_type_check_avoided();
        p.reset();
        assert_eq!(p.total_uops(), 0);
        assert_eq!(p.function_count(), 0);
        assert_eq!(p.static_savings(), StaticSavings::default());
    }

    #[test]
    fn static_savings_accumulate() {
        let p = Profiler::new();
        p.note_type_check_avoided();
        p.note_type_check_avoided();
        p.note_rc_inc_avoided();
        p.note_rc_dec_avoided();
        let s = p.static_savings();
        assert_eq!(s.type_checks_avoided, 2);
        assert_eq!(s.rc_incs_avoided, 1);
        assert_eq!(s.rc_decs_avoided, 1);
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn categories_expose_accel_targets() {
        assert!(Category::HashMap.is_accel_target());
        assert!(Category::Regex.is_accel_target());
        assert!(!Category::RefCount.is_accel_target());
        assert_eq!(Category::ALL.len(), 8);
    }

    /// The slot table, its FNV index and the address fast path must be
    /// observationally identical to a plain ordered map keyed by name.
    mod slot_table_equivalence {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// Stable-address names: more than the fast table holds (so entries
        /// evict each other), including equal contents at distinct addresses.
        fn name_pool() -> Vec<String> {
            let mut pool: Vec<String> = (0..90).map(|i| format!("leaf_{i}")).collect();
            pool.extend(["leaf_3", "leaf_40", "", "zend_hash_find"].map(String::from));
            pool
        }

        #[derive(Debug, Clone)]
        enum Op {
            /// Record pool name `i`, from its stable address or copied into
            /// the one reused buffer.
            Record {
                i: usize,
                reused_buffer: bool,
                cat: usize,
                uops: u64,
            },
            Pause,
            Resume,
            Reset,
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                40 => (0usize..94, 0u8..2, 0usize..8, 0u64..50).prop_map(|(i, b, cat, uops)| {
                    Op::Record { i, reused_buffer: b == 1, cat, uops }
                }),
                2 => (0u8..1).prop_map(|_| Op::Pause),
                2 => (0u8..1).prop_map(|_| Op::Resume),
                1 => (0u8..1).prop_map(|_| Op::Reset),
            ]
        }

        #[derive(Default)]
        struct Model {
            funcs: BTreeMap<String, FuncStats>,
            total: u64,
            depth: u32,
        }

        fn assert_matches(p: &Profiler, m: &Model, pool: &[String]) {
            assert_eq!(p.function_count(), m.funcs.len());
            assert_eq!(p.total_uops(), m.total);
            for name in pool {
                assert_eq!(p.function(name), m.funcs.get(name).cloned(), "{name:?}");
            }
            let mut by_cat: HashMap<Category, u64> = HashMap::new();
            for s in m.funcs.values() {
                *by_cat.entry(s.category.unwrap()).or_insert(0) += s.cost.uops;
            }
            assert_eq!(p.category_breakdown(), by_cat);
            let total = m.total.max(1) as f64;
            let mut rows: Vec<ProfileRow> = m
                .funcs
                .iter()
                .map(|(name, s)| ProfileRow {
                    name: name.clone(),
                    category: s.category.unwrap(),
                    calls: s.calls,
                    uops: s.cost.uops,
                    share: s.cost.uops as f64 / total,
                })
                .collect();
            rows.sort_by(|a, b| b.uops.cmp(&a.uops).then_with(|| a.name.cmp(&b.name)));
            assert_eq!(p.leaf_profile(), rows);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn profiler_matches_ordered_map_model(ops in prop::collection::vec(op(), 1..400)) {
                let pool = name_pool();
                let p = Profiler::new();
                let mut m = Model::default();
                let mut buf = String::with_capacity(64);
                for op in ops {
                    match op {
                        Op::Record { i, reused_buffer, cat, uops } => {
                            let cat = Category::ALL[cat];
                            let cost = OpCost::mixed(uops);
                            let name: &str = if reused_buffer {
                                buf.clear();
                                buf.push_str(&pool[i]);
                                &buf
                            } else {
                                &pool[i]
                            };
                            p.record(name, cat, cost);
                            if m.depth == 0 {
                                m.total += uops;
                                let e = m.funcs.entry(pool[i].clone()).or_default();
                                e.category.get_or_insert(cat);
                                e.calls += 1;
                                e.cost = e.cost.plus(cost);
                            }
                        }
                        Op::Pause => {
                            p.pause();
                            m.depth += 1;
                        }
                        Op::Resume if m.depth > 0 => {
                            p.resume();
                            m.depth -= 1;
                        }
                        Op::Resume => {}
                        Op::Reset => {
                            p.reset();
                            m.funcs.clear();
                            m.total = 0;
                        }
                    }
                }
                assert_matches(&p, &m, &pool);
            }
        }

        #[test]
        fn reused_buffer_never_inherits_a_fast_path_hit() {
            let p = Profiler::new();
            let mut buf = String::with_capacity(16);
            for name in ["alpha", "beta", "alpha", "gamma"] {
                buf.clear();
                buf.push_str(name);
                p.record(&buf, Category::Other, OpCost::alu(1));
            }
            assert_eq!(p.function("alpha").unwrap().calls, 2);
            assert_eq!(p.function("beta").unwrap().calls, 1);
            assert_eq!(p.function("gamma").unwrap().calls, 1);
            assert_eq!(p.function_count(), 3);
        }
    }
}
