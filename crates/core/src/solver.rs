//! The specialized semi-naive solver for the Figure 3 deduction rules.
//!
//! This module is the analogue of the paper's compiled Datalog back-end:
//! the parameterized rules (New, Assign, Load, Store, Ind, Param, Ret,
//! Virt, Static, Reach, Entry) are hand-instantiated over the
//! [`Abstraction`] interface, with one delta queue per derived relation
//! and boundary-indexed join buckets (see [`crate::bucket`]).
//!
//! Every derived fact is processed exactly once as a "delta": the round
//! engine in [`frontier`] drains the queues, evaluates the rule drivers
//! for each delta against the current indices (which already contain
//! every earlier fact, including the delta itself), and merges the
//! consequences back through the `insert_*` methods. Both orientations
//! of every two-derived-literal join are implemented, so the evaluation
//! is equivalent to semi-naive iteration to fixpoint.
//!
//! This file owns the state and the merge side: seeding (fresh solve,
//! additive extension, DRed retraction), insertion (dedup, subsumption,
//! demand gating, retract marking, indexing, logging), memoized
//! `compose`, and result assembly.
//!
//! * `compose` and `subsumes` are memoized over the copyable interned
//!   handles (sound because the interner is append-only, making both pure
//!   functions of their arguments). `invert` is *not* memoized: for every
//!   abstraction it is an O(1) field swap, cheaper than any table lookup.
//! * All maps and sets use the Fx hasher ([`ctxform_hash`]) — the keys are
//!   small trusted `Copy` tuples, the exact case Fx is built for.

mod frontier;

use std::mem;
use std::time::Instant;

use ctxform_algebra::{Abstraction, CtxtElem, CtxtStr, Levels, Limits};
use ctxform_hash::{fx_map_with_capacity, FxHashMap, FxHashSet};
use ctxform_ir::{
    Facts, Field, Heap, Inv, MSig, Method, Program, ProgramDelta, ProgramIndex, ProgramRetraction,
    Var,
};

use crate::bucket::Bucket;
use crate::config::AnalysisConfig;
use crate::result::{
    rule, AnalysisResult, CiFacts, LoggedFact, MemoryFootprint, SolverStats, RULE_NAMES,
};

/// Fixed per-slot estimate for hash-container overhead (control bytes
/// plus load-factor slack) in the [`MemoryFootprint`] byte accounting.
/// A constant keeps the estimates deterministic across runs and
/// platforms, unlike querying the allocator.
const HASH_SLOT_OVERHEAD: usize = 8;

/// Runs the analysis with the given abstraction instance.
///
/// `config.threads` sets how many workers the round engine in
/// [`frontier`] evaluates with; the fact sets are identical at every
/// thread count, so the choice is purely a wall-clock one.
pub(crate) fn run<A: Abstraction>(
    program: &Program,
    abs: A,
    config: AnalysisConfig,
) -> AnalysisResult {
    let (_, result) = solve_state(program, SolverState::new(program, abs, config));
    result
}

/// Runs the analysis restricted to the demand slice: every insertion is
/// dropped unless its context-insensitive projection is in `gate`.
///
/// Every context-sensitive derivation projects rule-by-rule onto a
/// context-insensitive one, and the magic-sets slice contains *every* CI
/// derivation tree rooted at a demanded query — so gating cannot block any
/// derivation that contributes to a queried variable's answer. The gated
/// run therefore returns exactly the exhaustive points-to sets for the
/// slice's query roots while deriving only the demanded region.
pub(crate) fn run_gated<A: Abstraction>(
    program: &Program,
    abs: A,
    config: AnalysisConfig,
    gate: std::sync::Arc<crate::DemandSlice>,
) -> AnalysisResult {
    let (_, result) = solve_state(
        program,
        SolverState::new(program, abs, config).with_gate(gate),
    );
    result
}

/// Solves `program` from scratch inside `state` (which must be fresh) and
/// returns the state alongside the result, so callers can keep the solved
/// database for later [`extend_state`] calls.
pub(crate) fn solve_state<A: Abstraction>(
    program: &Program,
    state: SolverState<A>,
) -> (SolverState<A>, AnalysisResult) {
    let config = state.config;
    let threads = config.effective_threads();
    let ix = program.index();
    let mut solver = Solver::from_state(program, &ix, state);
    // The solve-level span is inert (one relaxed load) unless tracing
    // was enabled; the config tag is only rendered when it will be kept.
    let mut span = ctxform_obs::span("solver.solve");
    if span.is_active() {
        span.record("config", format!("{config}"));
        span.record("threads", threads);
    }
    let start = Instant::now();
    solver.stats.profiled = config.profile;
    let t = solver.prof_start();
    solver.seed_entry();
    solver.prof_rule(t, rule::ENTRY);
    solver.prof_seed(t);
    solver.fixpoint(threads);
    let result = solver.finish(start);
    span.record("facts_total", result.stats.total());
    span.record("events", result.stats.events);
    (solver.into_state(), result)
}

/// Resumes a solved database after a purely-additive edit: seeds the
/// queues from `delta` (new entry points plus the existing facts its new
/// tuples can join) and runs the ordinary fixpoint against the *new*
/// program's indices.
///
/// `program` must be the extended program `delta` was computed against,
/// and `state` the solved state of the base program under a configuration
/// without subsumption elimination. Because Figure 3 is monotone, the
/// resumed fixpoint reaches exactly the least model of the extended
/// program — the same fact sets a from-scratch solve derives, at every
/// thread count.
pub(crate) fn extend_state<A: Abstraction>(
    program: &Program,
    state: SolverState<A>,
    delta: &ProgramDelta,
) -> (SolverState<A>, AnalysisResult) {
    let config = state.config;
    let threads = config.effective_threads();
    let ix = program.index();
    let mut solver = Solver::from_state(program, &ix, state);
    let mut span = ctxform_obs::span("solver.extend");
    if span.is_active() {
        span.record("config", format!("{config}"));
        span.record("threads", threads);
        span.record("delta_facts", delta.len());
    }
    let start = Instant::now();
    solver.stats.profiled = config.profile;
    let t = solver.prof_start();
    solver.reseed_for_delta(&delta.added, &delta.added_entry_points);
    solver.prof_seed(t);
    solver.fixpoint(threads);
    let result = solver.finish(start);
    span.record("facts_total", result.stats.total());
    span.record("events", result.stats.events);
    (solver.into_state(), result)
}

/// Resumes a solved database after a retractive edit via DRed
/// (delete-and-rederive).
///
/// The update runs in three phases over the saved state:
///
/// 1. **Over-delete**: every derived fact with a one-step derivation from
///    a removed input tuple is marked for deletion (coarsely, over all
///    contexts of the affected head), and the marking is closed
///    transitively by re-running the rule drivers in *retract mode* —
///    consequences of marked facts are marked instead of inserted.
/// 2. **Delete**: marked facts are physically removed and every join
///    index is rebuilt from the sorted survivors.
/// 3. **Re-derive**: surviving facts that can re-support a deleted head
///    (plus the edit's added tuples) are re-queued and the ordinary
///    monotone fixpoint runs, restoring exactly the facts with an
///    alternative derivation in the new program.
///
/// `program` is the edited program, `base` the program `state` was solved
/// for, and `retraction` their diff. Over-deletion is conservative (it
/// may mark facts whose other derivations survive), which is sound
/// because phase 3 restores anything the new least model contains —
/// so the final database is bit-identical to a from-scratch solve.
pub(crate) fn retract_state<A: Abstraction>(
    program: &Program,
    base: &Program,
    state: SolverState<A>,
    retraction: &ProgramRetraction,
) -> (SolverState<A>, AnalysisResult) {
    let config = state.config;
    let threads = config.effective_threads();
    let ix = program.index();
    let mut solver = Solver::from_state(program, &ix, state);
    let mut span = ctxform_obs::span("solver.retract");
    if span.is_active() {
        span.record("config", format!("{config}"));
        span.record("threads", threads);
        span.record("removed_facts", retraction.removed_len());
        span.record("added_facts", retraction.added_len());
    }
    let start = Instant::now();
    solver.stats.profiled = config.profile;
    solver.retract = Some(Box::new(RetractSink::new()));
    solver.seed_overdelete(base, retraction);
    // With the sink installed, the round engine closes the marking
    // transitively: it drains the sink's worklists and every computed
    // consequence is *marked* (if currently derived) instead of inserted.
    // Join partners come from the intact full indices, so every one-step
    // consequence of a marked fact is found, which over-approximates the
    // set of facts whose derivations ran through a removed input.
    solver.fixpoint(threads);
    let sink = solver.apply_deletions();
    let t = solver.prof_start();
    solver.reseed_after_deletion(&sink);
    solver.reseed_for_delta(&retraction.added, &retraction.added_entry_points);
    solver.prof_seed(t);
    solver.fixpoint(threads);
    solver.stats.rederived = solver.count_rederived(&sink);
    let result = solver.finish(start);
    span.record("facts_total", result.stats.total());
    span.record("overdeleted", result.stats.overdeleted);
    span.record("rederived", result.stats.rederived);
    (solver.into_state(), result)
}

/// The over-delete phase's bookkeeping: one mark set plus one worklist
/// per derived relation. While this sink is installed on the solver, the
/// `insert_*` methods *mark existing facts* instead of inserting — the
/// rule drivers then compute one-step consequences of deleted facts
/// without any dedicated deletion code.
struct RetractSink<X> {
    pts: FxHashSet<(Var, Heap, X)>,
    hpts: FxHashSet<(Heap, Field, Heap, X)>,
    hload: FxHashSet<(Heap, Field, Var, X)>,
    call: FxHashSet<(Inv, Method, X)>,
    spts: FxHashSet<(Field, Heap, X)>,
    reach: FxHashSet<(Method, CtxtStr)>,
    queues: Queues<X>,
}

impl<X> RetractSink<X> {
    fn new() -> Self {
        RetractSink {
            pts: FxHashSet::default(),
            hpts: FxHashSet::default(),
            hload: FxHashSet::default(),
            call: FxHashSet::default(),
            spts: FxHashSet::default(),
            reach: FxHashSet::default(),
            queues: Queues::default(),
        }
    }

    /// Total marked facts across all six derived relations.
    fn len(&self) -> usize {
        self.pts.len()
            + self.hpts.len()
            + self.hload.len()
            + self.call.len()
            + self.spts.len()
            + self.reach.len()
    }
}

/// One pending-delta worklist per derived relation.
#[derive(Clone)]
struct Queues<X> {
    pts: Vec<(Var, Heap, X)>,
    hpts: Vec<(Heap, Field, Heap, X)>,
    hload: Vec<(Heap, Field, Var, X)>,
    call: Vec<(Inv, Method, X)>,
    spts: Vec<(Field, Heap, X)>,
    reach: Vec<(Method, CtxtStr)>,
}

impl<X> Default for Queues<X> {
    fn default() -> Self {
        Queues {
            pts: Vec::new(),
            hpts: Vec::new(),
            hload: Vec::new(),
            call: Vec::new(),
            spts: Vec::new(),
            reach: Vec::new(),
        }
    }
}

impl<X> Queues<X> {
    /// Deltas queued across all six relations.
    fn len(&self) -> usize {
        self.reach.len()
            + self.pts.len()
            + self.call.len()
            + self.hpts.len()
            + self.hload.len()
            + self.spts.len()
    }
}

/// A join index: facts grouped per key, boundary-indexed within each
/// [`Bucket`].
type BucketMap<K, V> = FxHashMap<K, Bucket<V>>;

/// Memo table for `compose`, keyed on the copyable interned handles and
/// the truncation limits (sound because the interner is append-only).
type ComposeMemo<X> = FxHashMap<(X, X, Limits), Option<X>>;

/// The owned, program-independent half of a solver: every fact set, join
/// index, queue, memo table, and the abstraction instance (which owns the
/// context interner).
///
/// A `SolverState` is the *snapshot* an [`crate::AnalysisDb`] keeps after
/// a solve: together with the program it fully determines the database,
/// and [`extend_state`] can resume the fixpoint from it after an additive
/// edit. Cloning the state clones the whole database (the interner is
/// hash-consed and append-only, so the clone is an independent but
/// equivalent world).
#[derive(Clone)]
pub(crate) struct SolverState<A: Abstraction> {
    abs: A,
    config: AnalysisConfig,
    levels: Levels,
    mode: ctxform_algebra::BoundaryMode,
    pts: FxHashSet<(Var, Heap, A::X)>,
    pts_by_var: BucketMap<Var, (Heap, A::X)>,
    hpts: FxHashSet<(Heap, Field, Heap, A::X)>,
    hpts_by_gf: BucketMap<(Heap, Field), (Heap, A::X)>,
    hload: FxHashSet<(Heap, Field, Var, A::X)>,
    hload_by_gf: BucketMap<(Heap, Field), (Var, A::X)>,
    spts: FxHashSet<(Field, Heap, A::X)>,
    spts_by_field: FxHashMap<Field, Vec<(Heap, A::X)>>,
    call: FxHashSet<(Inv, Method, A::X)>,
    call_by_inv: BucketMap<Inv, (Method, A::X)>,
    call_by_method: BucketMap<Method, (Inv, A::X)>,
    reach: FxHashSet<(Method, CtxtStr)>,
    reach_by_method: FxHashMap<Method, Vec<CtxtStr>>,
    queues: Queues<A::X>,
    live_pts: FxHashMap<(Var, Heap), Vec<A::X>>,
    dead_pts: FxHashSet<(Var, Heap, A::X)>,
    compose_memo: ComposeMemo<A::X>,
    subsume_memo: FxHashMap<(A::X, A::X), bool>,
    stats: SolverStats,
    log: Vec<LoggedFact>,
    /// Optional demand gate: when set, every insertion is dropped unless
    /// its context-insensitive projection was demanded by the slice (see
    /// [`crate::analyze_sliced`]).
    gate: Option<std::sync::Arc<crate::DemandSlice>>,
}

impl<A: Abstraction> SolverState<A> {
    /// A fresh, unsolved state for `program` under `config`.
    pub(crate) fn new(program: &Program, abs: A, config: AnalysisConfig) -> Self {
        let levels = abs
            .sensitivity()
            .map(|s| s.levels)
            .unwrap_or(Levels { method: 0, heap: 0 });
        let mode = abs.boundary_mode();
        SolverState {
            abs,
            config,
            levels,
            mode,
            pts: FxHashSet::default(),
            pts_by_var: fx_map_with_capacity(program.var_count()),
            hpts: FxHashSet::default(),
            hpts_by_gf: FxHashMap::default(),
            hload: FxHashSet::default(),
            hload_by_gf: FxHashMap::default(),
            spts: FxHashSet::default(),
            spts_by_field: FxHashMap::default(),
            call: FxHashSet::default(),
            call_by_inv: fx_map_with_capacity(program.inv_count()),
            call_by_method: fx_map_with_capacity(program.method_count()),
            reach: FxHashSet::default(),
            reach_by_method: fx_map_with_capacity(program.method_count()),
            queues: Queues::default(),
            live_pts: FxHashMap::default(),
            dead_pts: FxHashSet::default(),
            compose_memo: FxHashMap::default(),
            subsume_memo: FxHashMap::default(),
            stats: SolverStats::default(),
            log: Vec::new(),
            gate: None,
        }
    }

    /// Restricts the solver to facts whose context-insensitive projection
    /// the demand slice contains. Must be set before solving starts.
    pub(crate) fn with_gate(mut self, gate: std::sync::Arc<crate::DemandSlice>) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Zeroes the per-run counters and the fact log so the next
    /// [`extend_state`] reports only the work the extension itself did
    /// (the fact-count fields are recomputed from the full sets at
    /// finish time either way).
    pub(crate) fn reset_run_counters(&mut self) {
        self.stats = SolverStats::default();
        self.log.clear();
    }

    /// Every live derived fact, rendered with program names and sorted —
    /// a canonical, interning-order-independent description of the
    /// database, suitable for digesting and cross-run comparison.
    pub(crate) fn rendered_facts(&self, program: &Program) -> Vec<String> {
        let mut out = Vec::with_capacity(
            self.pts.len()
                + self.hpts.len()
                + self.hload.len()
                + self.call.len()
                + self.spts.len()
                + self.reach.len(),
        );
        for &(y, h, x) in &self.pts {
            if self.config.subsumption && self.dead_pts.contains(&(y, h, x)) {
                continue;
            }
            out.push(format!(
                "pts({}, {}, {})",
                program.var_names[y.index()],
                program.heap_names[h.index()],
                self.abs.display(x, program)
            ));
        }
        for &(g, f, h, x) in &self.hpts {
            out.push(format!(
                "hpts({}, {}, {}, {})",
                program.heap_names[g.index()],
                program.field_names[f.index()],
                program.heap_names[h.index()],
                self.abs.display(x, program)
            ));
        }
        for &(g, f, y, x) in &self.hload {
            out.push(format!(
                "hload({}, {}, {}, {})",
                program.heap_names[g.index()],
                program.field_names[f.index()],
                program.var_names[y.index()],
                self.abs.display(x, program)
            ));
        }
        for &(i, q, x) in &self.call {
            out.push(format!(
                "call({}, {}, {})",
                program.inv_names[i.index()],
                program.method_names[q.index()],
                self.abs.display(x, program)
            ));
        }
        for &(f, h, x) in &self.spts {
            out.push(format!(
                "spts({}, {}, {})",
                program.field_names[f.index()],
                program.heap_names[h.index()],
                self.abs.display(x, program)
            ));
        }
        for &(p, m) in &self.reach {
            out.push(format!(
                "reach({}, [{}])",
                program.method_names[p.index()],
                self.abs.interner().display_with(m, |e| e.describe(program))
            ));
        }
        out.sort_unstable();
        out
    }
}

struct Solver<'p, A: Abstraction> {
    program: &'p Program,
    /// Static join indices, held by reference so rule drivers can iterate
    /// them while mutating the rest of the solver (split borrows).
    ix: &'p ProgramIndex,
    abs: A,
    config: AnalysisConfig,
    levels: Levels,
    mode: ctxform_algebra::BoundaryMode,

    pts: FxHashSet<(Var, Heap, A::X)>,
    /// `pts` keyed by variable, boundary-indexed on the destination side.
    pts_by_var: BucketMap<Var, (Heap, A::X)>,
    hpts: FxHashSet<(Heap, Field, Heap, A::X)>,
    /// `hpts` keyed by (base site, field), boundary-indexed on the
    /// destination side (its transformation maps pointee-alloc context to
    /// base-alloc context).
    hpts_by_gf: BucketMap<(Heap, Field), (Heap, A::X)>,
    hload: FxHashSet<(Heap, Field, Var, A::X)>,
    /// `hload` keyed by (base site, field), boundary-indexed on the
    /// source side.
    hload_by_gf: BucketMap<(Heap, Field), (Var, A::X)>,
    /// `spts(F, H, B)`: static field `F` may hold an object allocated at
    /// `H`, `B` constraining only the allocation context (SStore/SLoad —
    /// the static-field extension the paper's implementation models via
    /// Doop's rules).
    spts: FxHashSet<(Field, Heap, A::X)>,
    spts_by_field: FxHashMap<Field, Vec<(Heap, A::X)>>,
    call: FxHashSet<(Inv, Method, A::X)>,
    /// `call` keyed by invocation, boundary-indexed on the source side
    /// (for Param).
    call_by_inv: BucketMap<Inv, (Method, A::X)>,
    /// `call` keyed by callee, boundary-indexed on the destination side
    /// (for Ret).
    call_by_method: BucketMap<Method, (Inv, A::X)>,
    reach: FxHashSet<(Method, CtxtStr)>,
    reach_by_method: FxHashMap<Method, Vec<CtxtStr>>,

    queues: Queues<A::X>,

    /// Live (unsubsumed) transformations per (var, heap) key; maintained
    /// only when subsumption elimination is on.
    live_pts: FxHashMap<(Var, Heap), Vec<A::X>>,
    dead_pts: FxHashSet<(Var, Heap, A::X)>,

    compose_memo: ComposeMemo<A::X>,
    /// Memo table for `subsumes(a, b)`.
    subsume_memo: FxHashMap<(A::X, A::X), bool>,

    stats: SolverStats,
    log: Vec<LoggedFact>,
    /// Optional demand gate (see [`SolverState::with_gate`]).
    gate: Option<std::sync::Arc<crate::DemandSlice>>,
    /// When set, the solver is in the over-delete phase of a DRed update:
    /// `insert_*` calls mark existing facts for deletion instead of
    /// inserting. Transient — never part of a saved [`SolverState`].
    retract: Option<Box<RetractSink<A::X>>>,
}

impl<'p, A: Abstraction> Solver<'p, A> {
    /// Rebinds a state to a program and its freshly-built indices. The
    /// mapping is purely mechanical: `Solver` is `SolverState` plus the
    /// two borrowed fields.
    fn from_state(program: &'p Program, ix: &'p ProgramIndex, st: SolverState<A>) -> Self {
        Solver {
            program,
            ix,
            abs: st.abs,
            config: st.config,
            levels: st.levels,
            mode: st.mode,
            pts: st.pts,
            pts_by_var: st.pts_by_var,
            hpts: st.hpts,
            hpts_by_gf: st.hpts_by_gf,
            hload: st.hload,
            hload_by_gf: st.hload_by_gf,
            spts: st.spts,
            spts_by_field: st.spts_by_field,
            call: st.call,
            call_by_inv: st.call_by_inv,
            call_by_method: st.call_by_method,
            reach: st.reach,
            reach_by_method: st.reach_by_method,
            queues: st.queues,
            live_pts: st.live_pts,
            dead_pts: st.dead_pts,
            compose_memo: st.compose_memo,
            subsume_memo: st.subsume_memo,
            stats: st.stats,
            log: st.log,
            gate: st.gate,
            retract: None,
        }
    }

    /// Releases the program borrow, giving back the owned state.
    fn into_state(self) -> SolverState<A> {
        SolverState {
            abs: self.abs,
            config: self.config,
            levels: self.levels,
            mode: self.mode,
            pts: self.pts,
            pts_by_var: self.pts_by_var,
            hpts: self.hpts,
            hpts_by_gf: self.hpts_by_gf,
            hload: self.hload,
            hload_by_gf: self.hload_by_gf,
            spts: self.spts,
            spts_by_field: self.spts_by_field,
            call: self.call,
            call_by_inv: self.call_by_inv,
            call_by_method: self.call_by_method,
            reach: self.reach,
            reach_by_method: self.reach_by_method,
            queues: self.queues,
            live_pts: self.live_pts,
            dead_pts: self.dead_pts,
            compose_memo: self.compose_memo,
            subsume_memo: self.subsume_memo,
            stats: self.stats,
            log: self.log,
            gate: self.gate,
        }
    }

    fn limits_store(&self) -> Limits {
        Limits {
            src: self.levels.heap,
            dst: self.levels.heap,
        }
    }

    fn limits_flow(&self) -> Limits {
        Limits {
            src: self.levels.heap,
            dst: self.levels.method,
        }
    }

    /// Entry rule: seed `reach(main, [entry])` for every entry point.
    fn seed_entry(&mut self) {
        let entry_ctx = {
            let interner = self.abs.interner_mut();
            interner.from_slice(&[CtxtElem::entry()])
        };
        let program = self.program;
        for &main in &program.entry_points {
            self.insert_reach(main, entry_ctx, rule::ENTRY);
        }
    }

    /// Seeds the queues for an incremental extension: reachability of new
    /// entry points, plus re-queued *existing* facts whose rule drivers
    /// can now join one of the delta's new input tuples.
    ///
    /// Re-driving an existing fact is harmless (the `insert_*` methods
    /// dedup, and the rules are monotone), and the mapping below covers
    /// every Figure 3 rule body literal over an input relation, so every
    /// rule instantiation involving a new input tuple fires either here
    /// or transitively from a fact derived here. Re-queued facts are
    /// sorted, so the seed — and with it the whole resumed derivation —
    /// is deterministic.
    fn reseed_for_delta(&mut self, added: &Facts, added_entry_points: &[Method]) {
        let entry_ctx = {
            let interner = self.abs.interner_mut();
            interner.from_slice(&[CtxtElem::entry()])
        };
        for &main in added_entry_points {
            self.insert_reach(main, entry_ctx, rule::ENTRY);
        }
        let program = self.program;

        // Variables whose existing `pts` facts can drive a rule body that
        // gained an input tuple (Assign, Load, Store, Param's actual
        // role, Ret's return role, SStore, Virt).
        let mut vars: FxHashSet<Var> = FxHashSet::default();
        vars.extend(added.assign.iter().map(|&(z, _)| z));
        vars.extend(added.load.iter().map(|&(y, _, _)| y));
        for &(x, _, z) in &added.store {
            vars.insert(x);
            vars.insert(z);
        }
        vars.extend(added.actual.iter().map(|&(z, _, _)| z));
        vars.extend(added.ret.iter().map(|&(z, _)| z));
        vars.extend(added.static_store.iter().map(|&(x, _)| x));
        vars.extend(added.virtual_invoke.iter().map(|&(_, z, _)| z));
        // A new dispatch edge or `this` binding re-activates every
        // virtual site of the affected signatures.
        let mut sigs: FxHashSet<MSig> = added.implements.iter().map(|&(_, _, s)| s).collect();
        let new_this: FxHashSet<Method> = added.this_var.iter().map(|&(_, q)| q).collect();
        if !new_this.is_empty() {
            sigs.extend(
                program
                    .facts
                    .implements
                    .iter()
                    .filter(|&&(q, _, _)| new_this.contains(&q))
                    .map(|&(_, _, s)| s),
            );
        }
        if !sigs.is_empty() {
            vars.extend(
                program
                    .facts
                    .virtual_invoke
                    .iter()
                    .filter(|&&(_, _, s)| sigs.contains(&s))
                    .map(|&(_, z, _)| z),
            );
        }

        // Methods whose existing `reach` facts can drive New, Static, or
        // SLoad (the reach role joins `static_load` and `spts`).
        let mut methods: FxHashSet<Method> = FxHashSet::default();
        methods.extend(added.assign_new.iter().map(|&(_, _, p)| p));
        methods.extend(added.static_invoke.iter().map(|&(_, _, p)| p));
        methods.extend(
            added
                .static_load
                .iter()
                .map(|&(_, z)| program.var_method[z.index()]),
        );

        // Existing `call` facts that can drive Param/Ret against a new
        // formal / return / assign_return tuple.
        let call_methods: FxHashSet<Method> = added
            .formal
            .iter()
            .map(|&(_, p, _)| p)
            .chain(added.ret.iter().map(|&(_, p)| p))
            .collect();
        let call_invs: FxHashSet<Inv> = added.assign_return.iter().map(|&(i, _)| i).collect();

        let mut reseed_pts: Vec<(Var, Heap, A::X)> = self
            .pts
            .iter()
            .copied()
            .filter(|&(y, h, x)| {
                vars.contains(&y)
                    && !(self.config.subsumption && self.dead_pts.contains(&(y, h, x)))
            })
            .collect();
        reseed_pts.sort_unstable();
        self.queues.pts.extend(reseed_pts);

        let mut reseed_reach: Vec<(Method, CtxtStr)> = self
            .reach
            .iter()
            .copied()
            .filter(|(p, _)| methods.contains(p))
            .collect();
        reseed_reach.sort_unstable();
        self.queues.reach.extend(reseed_reach);

        let mut reseed_call: Vec<(Inv, Method, A::X)> = self
            .call
            .iter()
            .copied()
            .filter(|&(i, q, _)| call_methods.contains(&q) || call_invs.contains(&i))
            .collect();
        reseed_call.sort_unstable();
        self.queues.call.extend(reseed_call);
    }

    // ------------------------------------------------------------------
    // DRed over-delete phase
    // ------------------------------------------------------------------

    /// Marks the immediate heads of every rule instance that mentions a
    /// removed input tuple (phase 1 seed). Marking is *coarse*: when a
    /// removed tuple can contribute to `pts(y, ·, ·)` we mark every
    /// context of `y` — over-deletion is sound because the re-derive
    /// phase restores whatever the new program still supports, and
    /// coarseness keeps the seed independent of which contexts the
    /// removed tuple actually flowed through.
    ///
    /// `base` is the pre-edit program: companion lookups (formals,
    /// `this` variables, return bindings) must resolve against the
    /// relations the retracted derivations actually used.
    fn seed_overdelete(&mut self, base: &Program, r: &ProgramRetraction) {
        let entry_ctx = {
            let interner = self.abs.interner_mut();
            interner.from_slice(&[CtxtElem::entry()])
        };
        let removed = &r.removed;

        // Per-callee and per-pair views of the current call graph, built
        // once; removed `actual`/`ret`/`virtual_invoke` tuples need to
        // know which callees their invocation sites reached.
        let needs_call_targets = !removed.actual.is_empty()
            || !removed.ret.is_empty()
            || !removed.virtual_invoke.is_empty();
        let mut call_targets: FxHashMap<Inv, Vec<Method>> = FxHashMap::default();
        if needs_call_targets {
            for &(i, q, _) in &self.call {
                let targets = call_targets.entry(i).or_default();
                if !targets.contains(&q) {
                    targets.push(q);
                }
            }
        }
        // Companion lookups over the *base* program's relations.
        let base_formal_of: FxHashMap<(Method, u32), Var> = base
            .facts
            .formal
            .iter()
            .map(|&(y, p, o)| ((p, o), y))
            .collect();
        let base_this_of: FxHashMap<Method, Var> =
            base.facts.this_var.iter().map(|&(y, q)| (q, y)).collect();

        // Variables whose whole `pts` row dies, plus exact (var, heap)
        // pairs from removed allocations.
        let mut vars: FxHashSet<Var> = FxHashSet::default();
        let mut pairs: FxHashSet<(Var, Heap)> = FxHashSet::default();
        vars.extend(removed.assign.iter().map(|&(_, y)| y));
        vars.extend(removed.formal.iter().map(|&(y, _, _)| y));
        vars.extend(removed.assign_return.iter().map(|&(_, y)| y));
        vars.extend(removed.this_var.iter().map(|&(y, _)| y));
        vars.extend(removed.static_load.iter().map(|&(_, z)| z));
        pairs.extend(removed.assign_new.iter().map(|&(h, y, _)| (y, h)));
        // Param: a removed actual(Z, I, O) kills the formal of slot O in
        // every callee I dispatched to.
        for &(_, i, o) in &removed.actual {
            for &q in call_targets.get(&i).map(Vec::as_slice).unwrap_or(&[]) {
                if let Some(&y) = base_formal_of.get(&(q, o)) {
                    vars.insert(y);
                }
            }
        }
        // Ret: a removed return(Z, P) kills the assign_return targets of
        // every invocation that called P.
        if !removed.ret.is_empty() {
            let ret_methods: FxHashSet<Method> = removed.ret.iter().map(|&(_, p)| p).collect();
            for &(i, y) in &base.facts.assign_return {
                let reaches = call_targets
                    .get(&i)
                    .is_some_and(|qs| qs.iter().any(|q| ret_methods.contains(q)));
                if reaches {
                    vars.insert(y);
                }
            }
        }
        // Virt: a removed virtual_invoke(I, Z, S) kills every call edge
        // of I and the `this`-var bindings of its former callees.
        let mut call_invs: FxHashSet<Inv> = FxHashSet::default();
        for &(i, _, _) in &removed.virtual_invoke {
            call_invs.insert(i);
            for &q in call_targets.get(&i).map(Vec::as_slice).unwrap_or(&[]) {
                if let Some(&y) = base_this_of.get(&q) {
                    vars.insert(y);
                }
            }
        }
        // Static: a removed static_invoke(I, Q, P) kills call(I, Q, ·).
        let call_pairs: FxHashSet<(Inv, Method)> = removed
            .static_invoke
            .iter()
            .map(|&(i, q, _)| (i, q))
            .collect();
        // Load / Store / SStore heads.
        let hload_keys: FxHashSet<(Field, Var)> =
            removed.load.iter().map(|&(_, f, z)| (f, z)).collect();
        let hpts_fields: FxHashSet<Field> = removed.store.iter().map(|&(_, f, _)| f).collect();
        let spts_fields: FxHashSet<Field> = removed.static_store.iter().map(|&(_, f)| f).collect();

        // Mark the seeds, sorted per relation so the over-delete
        // worklists (and everything downstream) are deterministic.
        let mut seed_pts: Vec<(Var, Heap, A::X)> = self
            .pts
            .iter()
            .copied()
            .filter(|&(y, h, _)| vars.contains(&y) || pairs.contains(&(y, h)))
            .collect();
        seed_pts.sort_unstable();
        for (y, h, x) in seed_pts {
            self.mark_retract_pts(y, h, x);
        }
        let mut seed_hload: Vec<(Heap, Field, Var, A::X)> = self
            .hload
            .iter()
            .copied()
            .filter(|&(_, f, z, _)| hload_keys.contains(&(f, z)))
            .collect();
        seed_hload.sort_unstable();
        for (g, f, z, x) in seed_hload {
            self.mark_retract_hload(g, f, z, x);
        }
        let mut seed_hpts: Vec<(Heap, Field, Heap, A::X)> = self
            .hpts
            .iter()
            .copied()
            .filter(|&(_, f, _, _)| hpts_fields.contains(&f))
            .collect();
        seed_hpts.sort_unstable();
        for (g, f, h, x) in seed_hpts {
            self.mark_retract_hpts(g, f, h, x);
        }
        let mut seed_call: Vec<(Inv, Method, A::X)> = self
            .call
            .iter()
            .copied()
            .filter(|&(i, q, _)| call_invs.contains(&i) || call_pairs.contains(&(i, q)))
            .collect();
        seed_call.sort_unstable();
        for (i, q, x) in seed_call {
            self.mark_retract_call(i, q, x);
        }
        let mut seed_spts: Vec<(Field, Heap, A::X)> = self
            .spts
            .iter()
            .copied()
            .filter(|&(f, _, _)| spts_fields.contains(&f))
            .collect();
        seed_spts.sort_unstable();
        for (f, h, x) in seed_spts {
            self.mark_retract_spts(f, h, x);
        }
        // Entry: a removed entry point loses exactly its entry seed.
        for &p in &r.removed_entry_points {
            self.mark_retract_reach(p, entry_ctx);
        }
    }

    /// Phase 2: physically removes every marked fact, records the
    /// over-delete count, rebuilds all join indices from the sorted
    /// survivors, and uninstalls the sink (returning it for the
    /// re-derive seeding).
    fn apply_deletions(&mut self) -> RetractSink<A::X> {
        let sink = *self.retract.take().expect("retract sink installed");
        self.stats.overdeleted = sink.len() as u64;
        if sink.len() == 0 {
            return sink;
        }
        self.pts.retain(|t| !sink.pts.contains(t));
        self.hpts.retain(|t| !sink.hpts.contains(t));
        self.hload.retain(|t| !sink.hload.contains(t));
        self.call.retain(|t| !sink.call.contains(t));
        self.spts.retain(|t| !sink.spts.contains(t));
        self.reach.retain(|t| !sink.reach.contains(t));
        self.rebuild_join_indices();
        sink
    }

    /// Rebuilds every join index from the (post-deletion) fact sets.
    /// [`Bucket`] has no removal API — and rebuilding from sorted
    /// survivors keeps the index contents deterministic regardless of
    /// the deletion order.
    fn rebuild_join_indices(&mut self) {
        let strategy = self.config.join_strategy;
        let mode = self.mode;

        self.pts_by_var.clear();
        let mut pts: Vec<(Var, Heap, A::X)> = self.pts.iter().copied().collect();
        pts.sort_unstable();
        for (y, h, x) in pts {
            let boundary = self.abs.dst_boundary(x);
            self.pts_by_var
                .entry(y)
                .or_insert_with(|| Bucket::new(strategy, mode))
                .insert(boundary, (h, x), self.abs.interner());
        }

        self.hpts_by_gf.clear();
        let mut hpts: Vec<(Heap, Field, Heap, A::X)> = self.hpts.iter().copied().collect();
        hpts.sort_unstable();
        for (g, f, h, x) in hpts {
            let boundary = self.abs.dst_boundary(x);
            self.hpts_by_gf
                .entry((g, f))
                .or_insert_with(|| Bucket::new(strategy, mode))
                .insert(boundary, (h, x), self.abs.interner());
        }

        self.hload_by_gf.clear();
        let mut hload: Vec<(Heap, Field, Var, A::X)> = self.hload.iter().copied().collect();
        hload.sort_unstable();
        for (g, f, y, x) in hload {
            let boundary = self.abs.src_boundary(x);
            self.hload_by_gf
                .entry((g, f))
                .or_insert_with(|| Bucket::new(strategy, mode))
                .insert(boundary, (y, x), self.abs.interner());
        }

        self.call_by_inv.clear();
        self.call_by_method.clear();
        let mut call: Vec<(Inv, Method, A::X)> = self.call.iter().copied().collect();
        call.sort_unstable();
        for (i, q, x) in call {
            let src = self.abs.src_boundary(x);
            self.call_by_inv
                .entry(i)
                .or_insert_with(|| Bucket::new(strategy, mode))
                .insert(src, (q, x), self.abs.interner());
            let dst = self.abs.dst_boundary(x);
            self.call_by_method
                .entry(q)
                .or_insert_with(|| Bucket::new(strategy, mode))
                .insert(dst, (i, x), self.abs.interner());
        }

        self.spts_by_field.clear();
        let mut spts: Vec<(Field, Heap, A::X)> = self.spts.iter().copied().collect();
        spts.sort_unstable();
        for (f, h, x) in spts {
            self.spts_by_field.entry(f).or_default().push((h, x));
        }

        self.reach_by_method.clear();
        let mut reach: Vec<(Method, CtxtStr)> = self.reach.iter().copied().collect();
        reach.sort_unstable();
        for (p, m) in reach {
            self.reach_by_method.entry(p).or_default().push(m);
        }
    }

    /// Phase 3 seed: re-queues the surviving facts that can re-derive a
    /// deleted head through a rule instance of the *new* program.
    ///
    /// Invariant: for every deleted head and every rule instance (over
    /// the new program's inputs) that could re-derive it, either one of
    /// the instance's derived body literals is queued here, or that
    /// literal was itself deleted — in which case its own re-derivation
    /// re-queues it through the normal `insert_*` path. Entry heads have
    /// no derived body literal, so surviving entry points whose entry
    /// seed was deleted are re-inserted directly.
    fn reseed_after_deletion(&mut self, sink: &RetractSink<A::X>) {
        if sink.len() == 0 {
            return;
        }
        let program = self.program;

        let d_vars: FxHashSet<Var> = sink.pts.iter().map(|&(y, _, _)| y).collect();
        let d_pairs: FxHashSet<(Var, Heap)> = sink.pts.iter().map(|&(y, h, _)| (y, h)).collect();
        let d_hload_keys: FxHashSet<(Field, Var)> =
            sink.hload.iter().map(|&(_, f, z, _)| (f, z)).collect();
        let d_hpts_fields: FxHashSet<Field> = sink.hpts.iter().map(|&(_, f, _, _)| f).collect();
        let d_call_invs: FxHashSet<Inv> = sink.call.iter().map(|&(i, _, _)| i).collect();
        let d_spts_fields: FxHashSet<Field> = sink.spts.iter().map(|&(f, _, _)| f).collect();
        let d_reach_methods: FxHashSet<Method> = sink.reach.iter().map(|&(p, _)| p).collect();

        let mut vars: FxHashSet<Var> = FxHashSet::default();
        let mut reach_methods: FxHashSet<Method> = FxHashSet::default();
        let mut call_methods: FxHashSet<Method> = FxHashSet::default();
        let mut call_invs: FxHashSet<Inv> = FxHashSet::default();
        let mut spts_fields: FxHashSet<Field> = FxHashSet::default();

        // Rules with a deleted pts head: Assign, New, Param, Ret, Virt,
        // SLoad re-derive it from a surviving body literal.
        for &(z, y) in &program.facts.assign {
            if d_vars.contains(&y) {
                vars.insert(z);
            }
        }
        for &(h, y, p) in &program.facts.assign_new {
            if d_pairs.contains(&(y, h)) {
                reach_methods.insert(p);
            }
        }
        for &(y, p, _) in &program.facts.formal {
            if d_vars.contains(&y) {
                call_methods.insert(p);
            }
        }
        for &(i, y) in &program.facts.assign_return {
            if d_vars.contains(&y) {
                call_invs.insert(i);
            }
        }
        for &(f, z) in &program.facts.static_load {
            if d_vars.contains(&z) {
                spts_fields.insert(f);
            }
        }
        // Virt's pts head is a callee's `this` var: re-queue the
        // receiver points-to rows of every virtual site that can
        // dispatch there.
        let d_this_methods: FxHashSet<Method> = program
            .facts
            .this_var
            .iter()
            .filter(|&&(y, _)| d_vars.contains(&y))
            .map(|&(_, q)| q)
            .collect();
        if !d_this_methods.is_empty() {
            let sigs: FxHashSet<MSig> = program
                .facts
                .implements
                .iter()
                .filter(|&&(q, _, _)| d_this_methods.contains(&q))
                .map(|&(_, _, s)| s)
                .collect();
            for &(_, z, s) in &program.facts.virtual_invoke {
                if sigs.contains(&s) {
                    vars.insert(z);
                }
            }
        }
        // Deleted hload heads (Load) and hpts heads (Store).
        for &(w, f, z) in &program.facts.load {
            if d_hload_keys.contains(&(f, z)) {
                vars.insert(w);
            }
        }
        for &(x, f, _) in &program.facts.store {
            if d_hpts_fields.contains(&f) {
                vars.insert(x);
            }
        }
        // Deleted call heads (Static via reach, Virt via receiver pts).
        for &(i, _, p) in &program.facts.static_invoke {
            if d_call_invs.contains(&i) {
                reach_methods.insert(p);
            }
        }
        for &(i, z, _) in &program.facts.virtual_invoke {
            if d_call_invs.contains(&i) {
                vars.insert(z);
            }
        }
        // Deleted spts heads (SStore).
        for &(x, f) in &program.facts.static_store {
            if d_spts_fields.contains(&f) {
                vars.insert(x);
            }
        }
        // Deleted reach heads: Reach re-derives from surviving call
        // edges (queued below); Entry heads of surviving entry points
        // are re-inserted directly (the sink is uninstalled by now).
        if !d_reach_methods.is_empty() {
            let entry_ctx = {
                let interner = self.abs.interner_mut();
                interner.from_slice(&[CtxtElem::entry()])
            };
            for idx in 0..self.program.entry_points.len() {
                let p = self.program.entry_points[idx];
                if sink.reach.contains(&(p, entry_ctx)) {
                    self.insert_reach(p, entry_ctx, rule::ENTRY);
                }
            }
        }

        let mut rq_pts: Vec<(Var, Heap, A::X)> = self
            .pts
            .iter()
            .copied()
            .filter(|&(y, _, _)| vars.contains(&y))
            .collect();
        rq_pts.sort_unstable();
        self.queues.pts.extend(rq_pts);

        let mut rq_reach: Vec<(Method, CtxtStr)> = self
            .reach
            .iter()
            .copied()
            .filter(|(p, _)| reach_methods.contains(p))
            .collect();
        rq_reach.sort_unstable();
        self.queues.reach.extend(rq_reach);

        let mut rq_call: Vec<(Inv, Method, A::X)> = self
            .call
            .iter()
            .copied()
            .filter(|&(i, q, _)| {
                call_methods.contains(&q) || call_invs.contains(&i) || d_reach_methods.contains(&q)
            })
            .collect();
        rq_call.sort_unstable();
        self.queues.call.extend(rq_call);

        let mut rq_hload: Vec<(Heap, Field, Var, A::X)> = self
            .hload
            .iter()
            .copied()
            .filter(|(_, _, y, _)| d_vars.contains(y))
            .collect();
        rq_hload.sort_unstable();
        self.queues.hload.extend(rq_hload);

        let mut rq_spts: Vec<(Field, Heap, A::X)> = self
            .spts
            .iter()
            .copied()
            .filter(|(f, _, _)| spts_fields.contains(f))
            .collect();
        rq_spts.sort_unstable();
        self.queues.spts.extend(rq_spts);
    }

    /// How many over-deleted facts the re-derive phase restored.
    fn count_rederived(&self, sink: &RetractSink<A::X>) -> u64 {
        let n = sink.pts.iter().filter(|t| self.pts.contains(*t)).count()
            + sink.hpts.iter().filter(|t| self.hpts.contains(*t)).count()
            + sink
                .hload
                .iter()
                .filter(|t| self.hload.contains(*t))
                .count()
            + sink.call.iter().filter(|t| self.call.contains(*t)).count()
            + sink.spts.iter().filter(|t| self.spts.contains(*t)).count()
            + sink
                .reach
                .iter()
                .filter(|t| self.reach.contains(*t))
                .count();
        n as u64
    }

    // Marking helpers: a computed consequence is marked for deletion
    // only when it is currently derived and not yet marked (the sink
    // sets double as the seen-set of the over-delete worklists).

    fn mark_retract_pts(&mut self, y: Var, h: Heap, x: A::X) {
        let Some(sink) = self.retract.as_mut() else {
            return;
        };
        if self.pts.contains(&(y, h, x)) && sink.pts.insert((y, h, x)) {
            sink.queues.pts.push((y, h, x));
        }
    }

    fn mark_retract_hpts(&mut self, g: Heap, f: Field, h: Heap, x: A::X) {
        let Some(sink) = self.retract.as_mut() else {
            return;
        };
        if self.hpts.contains(&(g, f, h, x)) && sink.hpts.insert((g, f, h, x)) {
            sink.queues.hpts.push((g, f, h, x));
        }
    }

    fn mark_retract_hload(&mut self, g: Heap, f: Field, y: Var, x: A::X) {
        let Some(sink) = self.retract.as_mut() else {
            return;
        };
        if self.hload.contains(&(g, f, y, x)) && sink.hload.insert((g, f, y, x)) {
            sink.queues.hload.push((g, f, y, x));
        }
    }

    fn mark_retract_call(&mut self, i: Inv, q: Method, x: A::X) {
        let Some(sink) = self.retract.as_mut() else {
            return;
        };
        if self.call.contains(&(i, q, x)) && sink.call.insert((i, q, x)) {
            sink.queues.call.push((i, q, x));
        }
    }

    fn mark_retract_spts(&mut self, f: Field, h: Heap, x: A::X) {
        let Some(sink) = self.retract.as_mut() else {
            return;
        };
        if self.spts.contains(&(f, h, x)) && sink.spts.insert((f, h, x)) {
            sink.queues.spts.push((f, h, x));
        }
    }

    fn mark_retract_reach(&mut self, p: Method, m: CtxtStr) {
        let Some(sink) = self.retract.as_mut() else {
            return;
        };
        if self.reach.contains(&(p, m)) && sink.reach.insert((p, m)) {
            sink.queues.reach.push((p, m));
        }
    }

    // ------------------------------------------------------------------
    // Profiling hooks
    //
    // All three helpers are plain untaken branches when
    // `config.profile` is off — no clock reads, no atomics — so the
    // default hot path is untouched. When profiling is on, the clock
    // reads only ever land in the timing fields of `SolverStats`,
    // never in derivation decisions, which is what keeps
    // `fact_digest` bit-identical either way.
    // ------------------------------------------------------------------

    /// Block-start timestamp, or `None` when profiling is off.
    #[inline]
    fn prof_start(&self) -> Option<Instant> {
        if self.config.profile {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a timed rule block opened by [`Solver::prof_start`].
    #[inline]
    fn prof_rule(&mut self, t: Option<Instant>, idx: usize) {
        if let Some(t) = t {
            self.stats
                .rule_time
                .observe(idx, t.elapsed().as_nanos() as u64);
        }
    }

    /// Attributes elapsed time since `t` to the seeding phase.
    #[inline]
    fn prof_seed(&mut self, t: Option<Instant>) {
        if let Some(t) = t {
            self.stats.phase_profile.seed_ns += t.elapsed().as_nanos() as u64;
        }
    }

    fn compose(&mut self, a: A::X, b: A::X, limits: Limits) -> Option<A::X> {
        self.stats.compose_calls += 1;
        if self.config.memoize {
            if let Some(&r) = self.compose_memo.get(&(a, b, limits)) {
                self.stats.compose_memo_hits += 1;
                if r.is_none() {
                    self.stats.compose_bottom += 1;
                }
                return r;
            }
            self.stats.compose_memo_misses += 1;
        }
        let r = self.abs.compose(a, b, limits);
        if r.is_none() {
            self.stats.compose_bottom += 1;
        }
        if self.config.memoize {
            self.compose_memo.insert((a, b, limits), r);
        }
        r
    }

    /// Memoized `subsumes`, written as an associated function over the
    /// split-borrowed fields so it can run inside `retain` closures.
    fn subsumes_cached(
        abs: &A,
        memo: &mut FxHashMap<(A::X, A::X), bool>,
        stats: &mut SolverStats,
        memoize: bool,
        a: A::X,
        b: A::X,
    ) -> bool {
        if !memoize {
            return abs.subsumes(a, b);
        }
        if let Some(&r) = memo.get(&(a, b)) {
            stats.subsume_memo_hits += 1;
            return r;
        }
        stats.subsume_memo_misses += 1;
        let r = abs.subsumes(a, b);
        memo.insert((a, b), r);
        r
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    fn insert_pts(&mut self, y: Var, h: Heap, x: A::X, rule: usize) {
        if self.retract.is_some() {
            self.mark_retract_pts(y, h, x);
            return;
        }
        if let Some(gate) = &self.gate {
            if !gate.pts.contains(&(y, h)) {
                return;
            }
        }
        self.stats.rule_fired.bump(rule);
        if self.config.subsumption {
            if self.pts.contains(&(y, h, x)) {
                return; // plain duplicate, not a subsumption event
            }
            let memoize = self.config.memoize;
            let Solver {
                live_pts,
                subsume_memo,
                abs,
                stats,
                ..
            } = self;
            if let Some(live) = live_pts.get(&(y, h)) {
                if live
                    .iter()
                    .any(|&old| Self::subsumes_cached(abs, subsume_memo, stats, memoize, old, x))
                {
                    stats.subsumed_dropped += 1;
                    return;
                }
            }
        }
        if !self.pts.insert((y, h, x)) {
            return;
        }
        self.stats.rule_derived.bump(rule);
        if self.config.subsumption {
            let memoize = self.config.memoize;
            let Solver {
                live_pts,
                dead_pts,
                subsume_memo,
                abs,
                stats,
                ..
            } = self;
            let live = live_pts.entry((y, h)).or_default();
            let mut retired = 0;
            live.retain(|&old| {
                if Self::subsumes_cached(abs, subsume_memo, stats, memoize, x, old) {
                    dead_pts.insert((y, h, old));
                    retired += 1;
                    false
                } else {
                    true
                }
            });
            stats.subsumed_retired += retired;
            live.push(x);
        }
        let boundary = self.abs.dst_boundary(x);
        let strategy = self.config.join_strategy;
        let mode = self.mode;
        self.pts_by_var
            .entry(y)
            .or_insert_with(|| Bucket::new(strategy, mode))
            .insert(boundary, (h, x), self.abs.interner());
        if self.config.record_facts {
            let text = format!(
                "pts({}, {}, {})",
                self.program.var_names[y.index()],
                self.program.heap_names[h.index()],
                self.abs.display(x, self.program)
            );
            self.log.push(LoggedFact {
                relation: "pts",
                rule: RULE_NAMES[rule],
                text,
            });
        }
        self.queues.pts.push((y, h, x));
    }

    fn insert_hpts(&mut self, g: Heap, f: Field, h: Heap, x: A::X, rule: usize) {
        // The collapse transform runs before retract marking so marked
        // tuples match the stored (collapsed) representation.
        let x = if self.config.collapse_insensitive_heap && self.levels.heap == 0 {
            self.abs.uninformative()
        } else {
            x
        };
        if self.retract.is_some() {
            self.mark_retract_hpts(g, f, h, x);
            return;
        }
        if let Some(gate) = &self.gate {
            if !gate.hpts.contains(&(g, f, h)) {
                return;
            }
        }
        self.stats.rule_fired.bump(rule);
        if !self.hpts.insert((g, f, h, x)) {
            return;
        }
        self.stats.rule_derived.bump(rule);
        let boundary = self.abs.dst_boundary(x);
        let strategy = self.config.join_strategy;
        let mode = self.mode;
        self.hpts_by_gf
            .entry((g, f))
            .or_insert_with(|| Bucket::new(strategy, mode))
            .insert(boundary, (h, x), self.abs.interner());
        if self.config.record_facts {
            let text = format!(
                "hpts({}, {}, {}, {})",
                self.program.heap_names[g.index()],
                self.program.field_names[f.index()],
                self.program.heap_names[h.index()],
                self.abs.display(x, self.program)
            );
            self.log.push(LoggedFact {
                relation: "hpts",
                rule: RULE_NAMES[rule],
                text,
            });
        }
        self.queues.hpts.push((g, f, h, x));
    }

    fn insert_hload(&mut self, g: Heap, f: Field, y: Var, x: A::X, rule: usize) {
        if self.retract.is_some() {
            self.mark_retract_hload(g, f, y, x);
            return;
        }
        if let Some(gate) = &self.gate {
            if !gate.hload.contains(&(g, f, y)) {
                return;
            }
        }
        self.stats.rule_fired.bump(rule);
        if !self.hload.insert((g, f, y, x)) {
            return;
        }
        self.stats.rule_derived.bump(rule);
        let boundary = self.abs.src_boundary(x);
        let strategy = self.config.join_strategy;
        let mode = self.mode;
        self.hload_by_gf
            .entry((g, f))
            .or_insert_with(|| Bucket::new(strategy, mode))
            .insert(boundary, (y, x), self.abs.interner());
        if self.config.record_facts {
            let text = format!(
                "hload({}, {}, {}, {})",
                self.program.heap_names[g.index()],
                self.program.field_names[f.index()],
                self.program.var_names[y.index()],
                self.abs.display(x, self.program)
            );
            self.log.push(LoggedFact {
                relation: "hload",
                rule: RULE_NAMES[rule],
                text,
            });
        }
        self.queues.hload.push((g, f, y, x));
    }

    fn insert_call(&mut self, i: Inv, q: Method, x: A::X, rule: usize) {
        if self.retract.is_some() {
            self.mark_retract_call(i, q, x);
            return;
        }
        if let Some(gate) = &self.gate {
            if !gate.call.contains(&(i, q)) {
                return;
            }
        }
        self.stats.rule_fired.bump(rule);
        if !self.call.insert((i, q, x)) {
            return;
        }
        self.stats.rule_derived.bump(rule);
        let strategy = self.config.join_strategy;
        let mode = self.mode;
        let src = self.abs.src_boundary(x);
        self.call_by_inv
            .entry(i)
            .or_insert_with(|| Bucket::new(strategy, mode))
            .insert(src, (q, x), self.abs.interner());
        let dst = self.abs.dst_boundary(x);
        self.call_by_method
            .entry(q)
            .or_insert_with(|| Bucket::new(strategy, mode))
            .insert(dst, (i, x), self.abs.interner());
        if self.config.record_facts {
            let text = format!(
                "call({}, {}, {})",
                self.program.inv_names[i.index()],
                self.program.method_names[q.index()],
                self.abs.display(x, self.program)
            );
            self.log.push(LoggedFact {
                relation: "call",
                rule: RULE_NAMES[rule],
                text,
            });
        }
        self.queues.call.push((i, q, x));
    }

    fn insert_spts(&mut self, f: Field, h: Heap, x: A::X, rule: usize) {
        if self.retract.is_some() {
            self.mark_retract_spts(f, h, x);
            return;
        }
        if let Some(gate) = &self.gate {
            if !gate.spts.contains(&(f, h)) {
                return;
            }
        }
        self.stats.rule_fired.bump(rule);
        if !self.spts.insert((f, h, x)) {
            return;
        }
        self.stats.rule_derived.bump(rule);
        self.spts_by_field.entry(f).or_default().push((h, x));
        if self.config.record_facts {
            let text = format!(
                "spts({}, {}, {})",
                self.program.field_names[f.index()],
                self.program.heap_names[h.index()],
                self.abs.display(x, self.program)
            );
            self.log.push(LoggedFact {
                relation: "spts",
                rule: RULE_NAMES[rule],
                text,
            });
        }
        self.queues.spts.push((f, h, x));
    }

    fn insert_reach(&mut self, p: Method, m: CtxtStr, rule: usize) {
        if self.retract.is_some() {
            self.mark_retract_reach(p, m);
            return;
        }
        if let Some(gate) = &self.gate {
            if !gate.reach.contains(&p) {
                return;
            }
        }
        self.stats.rule_fired.bump(rule);
        if !self.reach.insert((p, m)) {
            return;
        }
        self.stats.rule_derived.bump(rule);
        self.reach_by_method.entry(p).or_default().push(m);
        if self.config.record_facts {
            let text = format!(
                "reach({}, [{}])",
                self.program.method_names[p.index()],
                self.abs
                    .interner()
                    .display_with(m, |e| e.describe(self.program))
            );
            self.log.push(LoggedFact {
                relation: "reach",
                rule: RULE_NAMES[rule],
                text,
            });
        }
        self.queues.reach.push((p, m));
    }

    // ------------------------------------------------------------------
    // Result assembly
    // ------------------------------------------------------------------

    /// Deterministic byte estimates of the resident relations, join
    /// indices, and memo tables (see [`MemoryFootprint`]): entry counts
    /// times entry sizes plus [`HASH_SLOT_OVERHEAD`] per hash slot, so
    /// the numbers are identical across runs of the same database.
    fn memory_footprint(&self) -> MemoryFootprint {
        use mem::size_of;
        fn set_bytes<T>(set: &FxHashSet<T>) -> usize {
            set.len() * (size_of::<T>() + HASH_SLOT_OVERHEAD)
        }
        fn bucket_map_bytes<K, V: Copy>(map: &FxHashMap<K, Bucket<V>>) -> usize {
            let mut bytes = map.len() * (size_of::<K>() + HASH_SLOT_OVERHEAD);
            for bucket in map.values() {
                let (keys, stored) = bucket.entry_counts();
                bytes += keys * (size_of::<CtxtStr>() + HASH_SLOT_OVERHEAD);
                bytes += stored * size_of::<V>();
            }
            bytes
        }
        fn vec_map_bytes<K, V>(map: &FxHashMap<K, Vec<V>>) -> usize {
            map.len() * (size_of::<K>() + size_of::<Vec<V>>() + HASH_SLOT_OVERHEAD)
                + map
                    .values()
                    .map(|v| v.len() * size_of::<V>())
                    .sum::<usize>()
        }
        MemoryFootprint {
            rel_pts: set_bytes(&self.pts),
            rel_hpts: set_bytes(&self.hpts),
            rel_hload: set_bytes(&self.hload),
            rel_call: set_bytes(&self.call),
            rel_spts: set_bytes(&self.spts),
            rel_reach: set_bytes(&self.reach),
            ix_pts_by_var: bucket_map_bytes(&self.pts_by_var),
            ix_hpts_by_gf: bucket_map_bytes(&self.hpts_by_gf),
            ix_hload_by_gf: bucket_map_bytes(&self.hload_by_gf),
            ix_spts_by_field: vec_map_bytes(&self.spts_by_field),
            ix_call_by_inv: bucket_map_bytes(&self.call_by_inv),
            ix_call_by_method: bucket_map_bytes(&self.call_by_method),
            ix_reach_by_method: vec_map_bytes(&self.reach_by_method),
            memo_compose: self.compose_memo.len()
                * (size_of::<(A::X, A::X, Limits)>()
                    + size_of::<Option<A::X>>()
                    + HASH_SLOT_OVERHEAD),
            memo_subsume: self.subsume_memo.len()
                * (size_of::<(A::X, A::X)>() + size_of::<bool>() + HASH_SLOT_OVERHEAD),
        }
    }

    fn finish(&mut self, start: Instant) -> AnalysisResult {
        self.stats.duration = start.elapsed();
        self.stats.memory = self.memory_footprint();
        self.stats.pts = self.pts.len() - self.dead_pts.len();
        self.stats.hpts = self.hpts.len();
        self.stats.hload = self.hload.len();
        self.stats.call = self.call.len();
        self.stats.spts = self.spts.len();
        self.stats.reach = self.reach.len();
        self.stats.interned_contexts = self.abs.interner().interned_count();
        self.stats.compose_memo_entries = self.compose_memo.len();
        self.stats.subsume_memo_entries = self.subsume_memo.len();
        let mut histogram: FxHashMap<String, usize> = FxHashMap::default();
        for &(y, h, x) in &self.pts {
            if self.config.subsumption && self.dead_pts.contains(&(y, h, x)) {
                continue;
            }
            let tag = self.abs.configuration(x);
            if !tag.is_empty() || matches!(self.mode, ctxform_algebra::BoundaryMode::Prefix) {
                *histogram.entry(tag).or_insert(0) += 1;
            }
        }
        let mut pts_configurations: Vec<(String, usize)> = histogram.into_iter().collect();
        pts_configurations.sort();
        self.stats.pts_configurations = pts_configurations;

        let mut ci = CiFacts::default();
        for &(y, h, _) in &self.pts {
            ci.pts.insert((y, h));
        }
        for &(g, f, h, _) in &self.hpts {
            ci.hpts.insert((g, f, h));
        }
        for &(i, q, _) in &self.call {
            ci.call.insert((i, q));
        }
        for &(f, h, _) in &self.spts {
            ci.spts.insert((f, h));
        }
        for &(p, _) in &self.reach {
            ci.reach.insert(p);
        }
        AnalysisResult {
            config: self.config,
            stats: self.stats.clone(),
            ci,
            log: mem::take(&mut self.log),
        }
    }
}
