//! `AnalysisFacts` — the side-table through which static analysis feeds the
//! interpreter and the accelerators.
//!
//! The `php-analysis` crate lowers a [`Program`](crate::ast::Program) into
//! CFGs, runs its data-flow analyses, and records what it proved *here*,
//! keyed by node ids it assigns during lowering. The AST types themselves
//! are never mutated: nodes are identified by address, so the facts are only
//! valid for the exact `Program` instance that was analyzed (templates are
//! parsed once and interpreted per-request, so that instance is long-lived).
//! Once built, the table is read-only, `Send + Sync`, and identity-stable:
//! wrapping the analyzed `Program` and its facts in `Arc`s and handing clones
//! of those `Arc`s to worker threads preserves every node address, so all
//! workers see the same facts without re-parsing or re-analyzing — the
//! software analogue of a shared bytecode cache.
//! A missing entry always means "no facts" — the interpreter falls back to
//! fully dynamic behaviour, which keeps attachment of stale or foreign facts
//! harmless for correctness.
//!
//! Every fact is *work-elision* metadata: skip a dynamic type check, skip
//! metering an inc/dec pair on a proven-non-escaping temporary, or let the
//! hardware hash table skip its hash/probe stage for a proven key shape.
//! None of them change what a program computes, only what bookkeeping the
//! runtime performs — interpreter output is byte-identical with facts
//! attached or not.

use crate::ast::{Expr, Stmt};
use regex_engine::Regex;
use std::collections::HashSet;

/// Identifier of an AST node, assigned in lowering order by `php-analysis`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Statically proven shape of a hash-map key at one access site. Mirrors the
/// hardware hint (`accel_htable::KeyShapeHint`) without depending on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KeyShape {
    /// Compile-time constant string key (hash foldable at specialization).
    ConstStr,
    /// Fresh integer append (`$a[] = v` on an append-only array).
    IntAppend,
    /// Nothing proven.
    #[default]
    Unknown,
}

/// The facts side-table. Built by `php-analysis`, consumed by
/// [`Interp`](crate::eval::Interp) via `set_facts`.
///
/// The engines query it on every evaluated node, so lookups are cheap by
/// construction: node addresses resolve to ids through an integer-hashed
/// map, and per-node facts live in a dense vector indexed by the id (ids
/// are issued densely from `next`). Only the sparse, heavyweight facts —
/// precompiled regexes and memo fingerprints — stay in id-keyed maps.
#[derive(Debug, Default)]
pub struct AnalysisFacts {
    expr_ids: IntMap<NodeId>,
    stmt_ids: IntMap<NodeId>,
    next: u32,
    /// Per-node flag facts, indexed by `NodeId`; ids past the end have none.
    nodes: Vec<NodeFacts>,
    /// Per-`Expr::Call` node: the regex compiled at analysis time from a
    /// constant-propagated `preg_*` pattern argument. The engines clone the
    /// handle, which shares its compiled automaton, instead of compiling
    /// per request. Keyed by `NodeId`.
    precompiled_regex: IntMap<Regex>,
    /// Byte sizes of statically known allocation sites (constant-string
    /// transients, fresh arrays): fed to the hardware heap's free-list
    /// pre-seeding when the facts are attached.
    alloc_size_hints: Vec<usize>,
    /// Number of tainted-sink lints the analysis raised for this program.
    taint_lint_count: usize,
    /// Functions whose symbol-table array is provably request-scoped (no
    /// `extract` poisoning). A missing name means "not proven" — the
    /// interpreter keeps the free-list path.
    symtab_arena_safe: HashSet<String>,
    /// `Expr::Call` sites the effect analysis proved memoizable across
    /// requests: the callee is (transitively) write-free and deterministic,
    /// so its result is a pure function of arguments plus the globals in
    /// its read-set. The stored fingerprint drives key construction and
    /// write-triggered invalidation. Keyed by `NodeId`.
    memo_sites: IntMap<MemoSiteFact>,
}

/// The per-node facts, one entry per `NodeId`.
#[derive(Debug, Clone, Copy, Default)]
struct NodeFacts {
    /// `BIN_LHS | BIN_RHS | RC_ELIDE_READ | ...` bits.
    flags: u8,
    /// Key shape proven for `Expr::Index` reads and `Stmt::Assign` writes.
    key_shape: KeyShape,
}

/// `Expr::Bin` node: lhs operand type proven.
const BIN_LHS: u8 = 1 << 0;
/// `Expr::Bin` node: rhs operand type proven.
const BIN_RHS: u8 = 1 << 1;
/// Expression node (`Var` / `Index`) whose fetched value's refcount
/// increment is elidable (consumed transiently, never escapes).
const RC_ELIDE_READ: u8 = 1 << 2;
/// Statement node (`Assign` / `Foreach`) whose stored value's inc and
/// overwritten value's dec are elidable.
const RC_ELIDE_STORE: u8 = 1 << 3;
/// `Expr::Call` node of a user function resolved through an
/// interprocedural summary (counted at runtime as a savings win).
const CALL_SUMMARIZED: u8 = 1 << 4;
/// Allocation site (echo materialization, concat transient, array literal,
/// autovivified array) the region analysis proved dies with the request:
/// eligible for arena/epoch allocation.
const ARENA_SAFE: u8 = 1 << 5;

/// A map keyed by a node address or a `NodeId`, hashed with
/// [`php_runtime::hash::IntHasher`].
type IntMap<V> = php_runtime::hash::IntMap<usize, V>;

/// What the engines need to memoize one proven call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoSiteFact {
    /// Callee name (part of the cache key).
    pub func: String,
    /// Dependency fingerprint: every global the callee may (transitively)
    /// read, sorted. Their *values* enter the key; their *names* drive
    /// invalidation.
    pub deps: Vec<String>,
}

fn expr_addr(e: &Expr) -> usize {
    e as *const Expr as usize
}

fn stmt_addr(s: &Stmt) -> usize {
    s as *const Stmt as usize
}

impl AnalysisFacts {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    // -- construction (used by php-analysis) ---------------------------------

    /// Assigns (or returns the existing) id for an expression node.
    pub fn intern_expr(&mut self, e: &Expr) -> NodeId {
        let next = &mut self.next;
        *self.expr_ids.entry(expr_addr(e)).or_insert_with(|| {
            let id = NodeId(*next);
            *next += 1;
            id
        })
    }

    /// Assigns (or returns the existing) id for a statement node.
    pub fn intern_stmt(&mut self, s: &Stmt) -> NodeId {
        let next = &mut self.next;
        *self.stmt_ids.entry(stmt_addr(s)).or_insert_with(|| {
            let id = NodeId(*next);
            *next += 1;
            id
        })
    }

    /// The mutable per-node entry for `id`, growing the table on demand.
    fn node_mut(&mut self, id: NodeId) -> &mut NodeFacts {
        let i = id.0 as usize;
        if i >= self.nodes.len() {
            self.nodes.resize(i + 1, NodeFacts::default());
        }
        &mut self.nodes[i]
    }

    /// Records which operands of a `Bin` node have statically proven types.
    pub fn set_bin_typed(&mut self, id: NodeId, lhs: bool, rhs: bool) {
        if lhs || rhs {
            let node = self.node_mut(id);
            node.flags &= !(BIN_LHS | BIN_RHS);
            node.flags |= if lhs { BIN_LHS } else { 0 } | if rhs { BIN_RHS } else { 0 };
        }
    }

    /// Marks a read node's refcount increment as elidable.
    pub fn mark_rc_elide_read(&mut self, id: NodeId) {
        self.node_mut(id).flags |= RC_ELIDE_READ;
    }

    /// Marks a store statement's refcount pair as elidable.
    pub fn mark_rc_elide_store(&mut self, id: NodeId) {
        self.node_mut(id).flags |= RC_ELIDE_STORE;
    }

    /// Records the proven key shape for an access site.
    pub fn set_key_shape(&mut self, id: NodeId, shape: KeyShape) {
        if shape != KeyShape::Unknown {
            self.node_mut(id).key_shape = shape;
        }
    }

    /// Stores the analysis-time-compiled regex for a `preg_*` call site.
    pub fn set_precompiled_regex(&mut self, id: NodeId, re: Regex) {
        self.precompiled_regex.insert(id.0 as usize, re);
    }

    /// Marks a user-call site as resolved through a function summary.
    pub fn mark_call_summarized(&mut self, id: NodeId) {
        self.node_mut(id).flags |= CALL_SUMMARIZED;
    }

    /// Records one statically known allocation size (bytes).
    pub fn add_alloc_size_hint(&mut self, size: usize) {
        self.alloc_size_hints.push(size);
    }

    /// Records how many tainted-sink lints the analysis raised.
    pub fn set_taint_lint_count(&mut self, n: usize) {
        self.taint_lint_count = n;
    }

    /// Marks an allocation site (expression or statement id) as arena-safe:
    /// the region analysis proved the allocation never outlives the request.
    /// Expression and statement sites share one id space.
    pub fn mark_arena_safe(&mut self, id: NodeId) {
        self.node_mut(id).flags |= ARENA_SAFE;
    }

    /// Records whether `name`'s symbol-table array is arena-safe. Only
    /// positive verdicts are stored; absence means "use the free list".
    pub fn set_symtab_arena_safe(&mut self, name: &str, safe: bool) {
        if safe {
            self.symtab_arena_safe.insert(name.to_string());
        }
    }

    /// Marks a call site as memoizable with the given fingerprint.
    pub fn set_memo_site(&mut self, id: NodeId, fact: MemoSiteFact) {
        self.memo_sites.insert(id.0 as usize, fact);
    }

    // -- queries (used by the interpreter) -----------------------------------

    /// The id of an expression node, if it belongs to the analyzed program.
    pub fn expr_id(&self, e: &Expr) -> Option<NodeId> {
        self.expr_ids.get(&expr_addr(e)).copied()
    }

    /// The id of a statement node, if it belongs to the analyzed program.
    pub fn stmt_id(&self, s: &Stmt) -> Option<NodeId> {
        self.stmt_ids.get(&stmt_addr(s)).copied()
    }

    /// The facts of a node id; the empty default when none were recorded.
    fn node(&self, id: Option<NodeId>) -> NodeFacts {
        id.and_then(|id| self.nodes.get(id.0 as usize).copied())
            .unwrap_or_default()
    }

    /// Whether the operand types of a `Bin` node were proven: `(lhs, rhs)`.
    pub fn bin_typed(&self, e: &Expr) -> (bool, bool) {
        let flags = self.node(self.expr_id(e)).flags;
        (flags & BIN_LHS != 0, flags & BIN_RHS != 0)
    }

    /// Whether a read node's refcount increment is elidable.
    pub fn rc_elide_read(&self, e: &Expr) -> bool {
        self.node(self.expr_id(e)).flags & RC_ELIDE_READ != 0
    }

    /// Whether a store statement's refcount pair is elidable.
    pub fn rc_elide_store(&self, s: &Stmt) -> bool {
        self.node(self.stmt_id(s)).flags & RC_ELIDE_STORE != 0
    }

    /// The proven key shape of an `Index` read.
    pub fn key_shape_expr(&self, e: &Expr) -> KeyShape {
        self.node(self.expr_id(e)).key_shape
    }

    /// The proven key shape of an `Assign` write.
    pub fn key_shape_stmt(&self, s: &Stmt) -> KeyShape {
        self.node(self.stmt_id(s)).key_shape
    }

    /// The analysis-time-compiled regex for a `preg_*` call site, if any.
    pub fn precompiled_regex(&self, e: &Expr) -> Option<&Regex> {
        self.expr_id(e)
            .and_then(|id| self.precompiled_regex.get(&(id.0 as usize)))
    }

    /// Whether a user-call site was resolved through a function summary.
    pub fn call_summarized(&self, e: &Expr) -> bool {
        self.node(self.expr_id(e)).flags & CALL_SUMMARIZED != 0
    }

    /// Statically known allocation sizes (bytes), for heap pre-seeding.
    pub fn alloc_size_hints(&self) -> &[usize] {
        &self.alloc_size_hints
    }

    /// Number of tainted-sink lints the analysis raised.
    pub fn taint_lint_count(&self) -> usize {
        self.taint_lint_count
    }

    /// Whether an expression's allocation site is proven arena-safe.
    pub fn arena_safe_expr(&self, e: &Expr) -> bool {
        self.node(self.expr_id(e)).flags & ARENA_SAFE != 0
    }

    /// Whether a statement's allocation site (autovivified array) is proven
    /// arena-safe.
    pub fn arena_safe_stmt(&self, s: &Stmt) -> bool {
        self.node(self.stmt_id(s)).flags & ARENA_SAFE != 0
    }

    /// Whether `name`'s symbol-table array is proven arena-safe.
    pub fn symtab_arena_safe(&self, name: &str) -> bool {
        self.symtab_arena_safe.contains(name)
    }

    /// Number of proven arena-safe allocation sites (node sites plus
    /// symbol-table verdicts), for the savings counters.
    pub fn arena_safe_count(&self) -> usize {
        self.count_flag(ARENA_SAFE) + self.symtab_arena_safe.len()
    }

    /// Number of `preg_*` sites with an analysis-time-compiled pattern.
    pub fn precompiled_regex_count(&self) -> usize {
        self.precompiled_regex.len()
    }

    /// The memo fingerprint of a call site, if the analysis proved it
    /// memoizable.
    pub fn memo_site(&self, e: &Expr) -> Option<&MemoSiteFact> {
        self.expr_id(e)
            .and_then(|id| self.memo_sites.get(&(id.0 as usize)))
    }

    /// Number of proven-memoizable call sites.
    pub fn memo_site_count(&self) -> usize {
        self.memo_sites.len()
    }

    // -- summary counts (used by reports) ------------------------------------

    /// Number of nodes carrying `flag`.
    fn count_flag(&self, flag: u8) -> usize {
        self.nodes.iter().filter(|n| n.flags & flag != 0).count()
    }

    /// Number of nodes interned.
    pub fn node_count(&self) -> usize {
        self.expr_ids.len() + self.stmt_ids.len()
    }

    /// Number of `Bin` operand slots with proven types.
    pub fn typed_operand_count(&self) -> usize {
        self.count_flag(BIN_LHS) + self.count_flag(BIN_RHS)
    }

    /// Number of elidable read nodes.
    pub fn rc_elide_read_count(&self) -> usize {
        self.count_flag(RC_ELIDE_READ)
    }

    /// Number of elidable store statements.
    pub fn rc_elide_store_count(&self) -> usize {
        self.count_flag(RC_ELIDE_STORE)
    }

    /// Number of access sites with a proven key shape, by shape.
    pub fn key_shape_counts(&self) -> (usize, usize) {
        let count = |shape| self.nodes.iter().filter(|n| n.key_shape == shape).count();
        (count(KeyShape::ConstStr), count(KeyShape::IntAppend))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn facts_key_on_node_identity_not_equality() {
        let prog = parse("$a = 1 + 2; $b = 1 + 2;").unwrap();
        let Stmt::Assign { value: v1, .. } = &prog.stmts[0] else {
            panic!()
        };
        let Stmt::Assign { value: v2, .. } = &prog.stmts[1] else {
            panic!()
        };
        assert_eq!(v1, v2, "structurally equal");
        let mut f = AnalysisFacts::new();
        let id = f.intern_expr(v1);
        f.set_bin_typed(id, true, true);
        assert_eq!(f.bin_typed(v1), (true, true));
        // The twin node carries no facts: identity, not structure.
        assert_eq!(f.bin_typed(v2), (false, false));
        // A clone is a different instance → no facts (safe fallback).
        let cloned = v1.clone();
        assert_eq!(f.bin_typed(&cloned), (false, false));
    }

    #[test]
    fn interning_is_idempotent() {
        let prog = parse("$x = 1;").unwrap();
        let s = &prog.stmts[0];
        let mut f = AnalysisFacts::new();
        let a = f.intern_stmt(s);
        let b = f.intern_stmt(s);
        assert_eq!(a, b);
        assert_eq!(f.stmt_id(s), Some(a));
    }

    #[test]
    fn facts_are_send_and_sync_for_arc_sharing() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnalysisFacts>();
    }

    #[test]
    fn arc_sharing_preserves_node_identity() {
        use std::sync::Arc;
        let prog = Arc::new(parse("$a = 1 + 2;").unwrap());
        let Stmt::Assign { value, .. } = &prog.stmts[0] else {
            panic!()
        };
        let mut f = AnalysisFacts::new();
        let id = f.intern_expr(value);
        f.set_bin_typed(id, true, true);
        let facts = Arc::new(f);
        // Another thread holding clones of the same Arcs resolves the same
        // node to the same facts: addresses survive the Arc round-trip.
        let (p2, f2) = (Arc::clone(&prog), Arc::clone(&facts));
        std::thread::spawn(move || {
            let Stmt::Assign { value, .. } = &p2.stmts[0] else {
                panic!()
            };
            assert_eq!(f2.bin_typed(value), (true, true));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn unknown_shapes_not_stored() {
        let prog = parse("$x = $a['k'];").unwrap();
        let Stmt::Assign { value, .. } = &prog.stmts[0] else {
            panic!()
        };
        let mut f = AnalysisFacts::new();
        let id = f.intern_expr(value);
        f.set_key_shape(id, KeyShape::Unknown);
        assert_eq!(f.key_shape_counts(), (0, 0));
        f.set_key_shape(id, KeyShape::ConstStr);
        assert_eq!(f.key_shape_expr(value), KeyShape::ConstStr);
        assert_eq!(f.key_shape_counts(), (1, 0));
    }

    /// Every query answers "no facts" for `e` and `s`.
    fn assert_no_facts(f: &AnalysisFacts, e: &Expr, s: &Stmt) {
        assert_eq!(f.bin_typed(e), (false, false));
        assert!(!f.rc_elide_read(e));
        assert!(!f.rc_elide_store(s));
        assert_eq!(f.key_shape_expr(e), KeyShape::Unknown);
        assert_eq!(f.key_shape_stmt(s), KeyShape::Unknown);
        assert!(f.precompiled_regex(e).is_none());
        assert!(!f.call_summarized(e));
        assert!(!f.arena_safe_expr(e));
        assert!(!f.arena_safe_stmt(s));
        assert!(f.memo_site(e).is_none());
    }

    #[test]
    fn nodes_outside_the_analyzed_program_get_default_answers() {
        let src = "$a = 1 + 2; $b = $a;";
        let prog = parse(src).unwrap();
        let mut f = AnalysisFacts::new();
        // Every kind of fact on every node of the analyzed program.
        for s in &prog.stmts {
            let Stmt::Assign { value, .. } = s else {
                panic!()
            };
            for id in [f.intern_stmt(s), f.intern_expr(value)] {
                f.set_bin_typed(id, true, true);
                f.mark_rc_elide_read(id);
                f.mark_rc_elide_store(id);
                f.set_key_shape(id, KeyShape::ConstStr);
                f.set_precompiled_regex(id, Regex::new("a+").unwrap());
                f.mark_call_summarized(id);
                f.mark_arena_safe(id);
                f.set_memo_site(
                    id,
                    MemoSiteFact {
                        func: "f".into(),
                        deps: vec![],
                    },
                );
            }
        }
        let Stmt::Assign { value, .. } = &prog.stmts[0] else {
            panic!()
        };
        assert_eq!(f.bin_typed(value), (true, true));
        assert!(f.arena_safe_stmt(&prog.stmts[0]));

        // The same source parsed again: equal nodes, foreign addresses.
        let foreign = parse(src).unwrap();
        // Interned after every fact was recorded: its id lies past the end
        // of the dense table.
        let late = parse("$c = 3;").unwrap();
        let Stmt::Assign {
            value: late_value, ..
        } = &late.stmts[0]
        else {
            panic!()
        };
        f.intern_stmt(&late.stmts[0]);
        f.intern_expr(late_value);
        for s in foreign.stmts.iter().chain(&late.stmts) {
            let Stmt::Assign { value, .. } = s else {
                panic!()
            };
            assert_no_facts(&f, value, s);
        }
        assert_no_facts(&AnalysisFacts::new(), value, &prog.stmts[0]);
    }
}
