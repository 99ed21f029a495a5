//! The round engine: the solver's one fixpoint loop.
//!
//! Every solve, extension and DRed phase runs the queues to empty in
//! rounds:
//!
//! 1. **Drain**: the delta queues are taken whole as the round's
//!    frontier, read as one sequence in a fixed relation order.
//! 2. **Evaluate**: the frontier is split into contiguous chunks and the
//!    rule drivers run *read-only* against the frozen solver state (fact
//!    sets, join buckets, interner, `ProgramIndex`), appending
//!    [`Candidate`] derivations to a private per-chunk buffer. With one
//!    thread every chunk is evaluated inline on the calling thread; with
//!    `T > 1`, `std::thread::scope` worker `w` statically owns chunks
//!    `w, w + T, w + 2T, …`. Each worker keeps its own compose-memo shard
//!    across rounds; worker 0's shard is the solver's persistent memo, so
//!    a later extension starts warm.
//! 3. **Merge (sequential)**: chunk buffers are applied in chunk order
//!    through the `insert_*` methods, which dedup, subsume, gate, index,
//!    log, and re-queue.
//!
//! # Retract mode
//!
//! During the over-delete phase of a DRed update the solver carries a
//! `RetractSink`: the drain takes the sink's worklists, the drivers are
//! unchanged, and `insert_*` *marks* a consequence for deletion instead of
//! inserting it — but only if it is currently derived. The worker-side
//! emit filter flips accordingly: normally it drops consequences that are
//! already present (the merge would drop them as duplicates); in retract
//! mode it keeps exactly those, since an absent fact cannot be marked.
//!
//! # Determinism
//!
//! The result is bit-identical for every thread count (and across runs):
//!
//! * Workers never mutate shared state — the one operation the rule
//!   drivers would mutate through, context-string interning, is routed
//!   through the read-only `try_*` twins of the [`Abstraction`] interface.
//!   When a derivation would need to intern a *new* string, the worker
//!   emits a deferred [`Candidate`] and the merge phase replays the
//!   mutating twin. All interning therefore happens sequentially, in
//!   candidate order.
//! * The concatenation of the chunk buffers equals the candidate sequence
//!   a single worker would produce walking the frontier in order: chunks
//!   are contiguous, chunk processing is pure, and the merge applies them
//!   in frontier order no matter which worker computed which chunk.
//! * A `try_*` result depends only on the frozen interner contents, which
//!   are themselves produced by the deterministic merge phase, so by
//!   induction every round's candidate stream is a pure function of the
//!   program and the configuration.
//!
//! Per-worker memo shards do not perturb this: a shard only ever caches a
//! result that is exact, and interning is append-only, so a hit returns
//! exactly what recomputation would. (Chunk→worker assignment is static,
//! so for a *fixed* thread count even the memo hit/miss counters are
//! deterministic; across different thread counts they differ while the
//! fact sets stay identical.)
//!
//! # Completeness
//!
//! Semi-naive completeness holds because every accepted fact is queued
//! and later driven as a delta against indices that already contain all
//! facts accepted before it (the merge phase inserts and queues in the
//! same step, and a round's indices include everything from prior
//! merges), and both orientations of every two-derived-literal join are
//! implemented by the drivers.

use std::mem;
use std::time::Instant;

use ctxform_algebra::{Abstraction, CtxtElem, CtxtStr, Limits, MergeSite};
use ctxform_ir::{Field, Heap, Inv, Method, Var};

use super::{ComposeMemo, Queues, Solver};
use crate::result::{rule, RoundProfile, RuleTimes, MAX_ROUND_PROFILES};

/// A Figure 3 rule as an index into [`crate::RULE_NAMES`], narrowed so a
/// buffered [`Candidate`] stays small.
type RuleId = u8;

/// A derivation produced by a worker, to be applied by the merge phase.
///
/// The `Def*` variants are derivations the worker could not finish
/// read-only because the result requires interning a new context string;
/// the merge phase replays the mutating operation and inserts the result.
enum Candidate<X> {
    Pts(Var, Heap, X, RuleId),
    Hpts(Heap, Field, Heap, X, RuleId),
    Hload(Heap, Field, Var, X, RuleId),
    Call(Inv, Method, X, RuleId),
    Spts(Field, Heap, X, RuleId),
    Reach(Method, CtxtStr, RuleId),
    /// `record(m)` feeding `pts(y, h, ·)` (New).
    DefRecord(Var, Heap, CtxtStr),
    /// `compose(a, b, limits_flow)` feeding `pts(y, h, ·)` (Param, Ret,
    /// Virt, Ind).
    DefComposePts(Var, Heap, X, X, RuleId),
    /// `compose(a, b, limits_store)` feeding `hpts(g, f, h, ·)` (Store).
    DefComposeHpts(Heap, Field, Heap, X, X),
    /// `merge_s(i, m)` feeding `call(i, q, ·)` (Static).
    DefMergeS(Inv, Method, CtxtStr),
    /// `load_global(b, m)` feeding `pts(z, h, ·)` (SLoad).
    DefLoadGlobal(Var, Heap, X, CtxtStr),
    /// `globalize(b)` feeding `spts(f, h, ·)` (SStore).
    DefGlobalize(Field, Heap, X),
    /// The whole Virt consequent for receiver fact `pts(_, h, b)` at
    /// invocation `i` resolving to `q`: replays `merge` (and the
    /// `this`-flow compose) sequentially.
    DefVirt(Inv, Method, Heap, X),
}

/// Per-worker state that persists across rounds: the compose-memo shard
/// and the reusable join-candidate buffers.
struct WorkerState<X> {
    memo: ComposeMemo<X>,
    scratch_heap: Vec<(Heap, X)>,
    scratch_method: Vec<(Method, X)>,
    scratch_inv: Vec<(Inv, X)>,
    scratch_var: Vec<(Var, X)>,
}

impl<X> Default for WorkerState<X> {
    fn default() -> Self {
        WorkerState {
            memo: ComposeMemo::default(),
            scratch_heap: Vec::new(),
            scratch_method: Vec::new(),
            scratch_inv: Vec::new(),
            scratch_var: Vec::new(),
        }
    }
}

/// The output of processing one chunk: candidates in frontier order plus
/// the counter deltas to fold into [`SolverStats`](crate::SolverStats).
struct ChunkOut<X> {
    cands: Vec<Candidate<X>>,
    probes: u64,
    compose_calls: u64,
    compose_bottom: u64,
    memo_hits: u64,
    memo_misses: u64,
    deferred: u64,
    /// Per-rule evaluation wall time observed by this chunk's worker
    /// (all-zero unless `config.profile` is set). Folded into
    /// `stats.rule_time` during the merge phase — purely observational,
    /// never part of the candidate stream.
    rule_time: RuleTimes,
}

impl<X> Default for ChunkOut<X> {
    fn default() -> Self {
        ChunkOut {
            cands: Vec::new(),
            probes: 0,
            compose_calls: 0,
            compose_bottom: 0,
            memo_hits: 0,
            memo_misses: 0,
            deferred: 0,
            rule_time: RuleTimes::default(),
        }
    }
}

/// Contiguous chunk length for a frontier of `n` deltas. Any value yields
/// the same result (chunks are concatenated in order); this only balances
/// scheduling granularity against per-chunk overhead.
fn chunk_size(n: usize, threads: usize) -> usize {
    n.div_ceil(threads * 4).clamp(16, 4096)
}

/// A worker's read-only view of the solver plus its private output.
struct Worker<'a, 'p, A: Abstraction> {
    s: &'a Solver<'p, A>,
    st: &'a mut WorkerState<A::X>,
    out: ChunkOut<A::X>,
    /// The solver is in the over-delete phase (see the module docs).
    retracting: bool,
}

/// Evaluates the rule drivers, read-only, for the deltas at positions
/// `lo..hi` of `frontier` read as one sequence in relation order (reach,
/// pts, call, hpts, hload, spts).
fn process_chunk<A: Abstraction>(
    s: &Solver<'_, A>,
    st: &mut WorkerState<A::X>,
    frontier: &Queues<A::X>,
    lo: usize,
    hi: usize,
) -> ChunkOut<A::X> {
    let mut w = Worker {
        s,
        st,
        out: ChunkOut::default(),
        retracting: s.retract.is_some(),
    };
    // The part of `lo..hi` that falls in the next relation's queue, as a
    // range local to that queue.
    let mut base = 0;
    let mut local = |len: usize| {
        let r = lo.clamp(base, base + len) - base..hi.clamp(base, base + len) - base;
        base += len;
        r
    };
    for &(p, m) in &frontier.reach[local(frontier.reach.len())] {
        w.drive_reach(p, m);
    }
    for &(y, h, x) in &frontier.pts[local(frontier.pts.len())] {
        w.drive_pts(y, h, x);
    }
    for &(i, q, x) in &frontier.call[local(frontier.call.len())] {
        w.drive_call(i, q, x);
    }
    for &(g, f, h, x) in &frontier.hpts[local(frontier.hpts.len())] {
        w.drive_hpts(g, f, h, x);
    }
    for &(g, f, y, x) in &frontier.hload[local(frontier.hload.len())] {
        w.drive_hload(g, f, y, x);
    }
    for &(f, h, x) in &frontier.spts[local(frontier.spts.len())] {
        w.drive_spts(f, h, x);
    }
    w.out
}

impl<'p, A: Abstraction> Worker<'_, 'p, A> {
    // Profiling hooks: plain untaken branches (no clocks) when
    // `config.profile` is off, and when on the timings land only in
    // `out.rule_time`, never in the candidates.

    /// Block-start timestamp, or `None` when profiling is off.
    #[inline]
    fn prof_start(&self) -> Option<Instant> {
        if self.s.config.profile {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a timed rule block opened by [`Worker::prof_start`].
    #[inline]
    fn prof_rule(&mut self, t: Option<Instant>, idx: usize) {
        if let Some(t) = t {
            self.out
                .rule_time
                .observe(idx, t.elapsed().as_nanos() as u64);
        }
    }

    // Emit helpers: pre-filter candidates against the frozen fact sets.
    // Normally an already-present fact is dropped: `insert_*` performs the
    // same check against a superset of this state (facts are never removed
    // mid-solve), so the filter only drops what the merge would. In retract
    // mode only present facts are kept, because `mark_retract_*` marks
    // nothing else.

    /// Whether a consequence goes to the merge phase, given whether it is
    /// `present` in the frozen fact sets.
    #[inline]
    fn wanted(&self, present: bool) -> bool {
        present == self.retracting
    }

    fn emit_pts(&mut self, y: Var, h: Heap, x: A::X, rule: usize) {
        if self.wanted(self.s.pts.contains(&(y, h, x))) {
            self.out.cands.push(Candidate::Pts(y, h, x, rule as RuleId));
        }
    }

    fn emit_hpts(&mut self, g: Heap, f: Field, h: Heap, x: A::X, rule: usize) {
        // Mirror insert_hpts's collapse so the lookup key matches.
        let s = self.s;
        let x = if s.config.collapse_insensitive_heap && s.levels.heap == 0 {
            s.abs.uninformative()
        } else {
            x
        };
        if self.wanted(s.hpts.contains(&(g, f, h, x))) {
            self.out
                .cands
                .push(Candidate::Hpts(g, f, h, x, rule as RuleId));
        }
    }

    fn emit_hload(&mut self, g: Heap, f: Field, y: Var, x: A::X, rule: usize) {
        if self.wanted(self.s.hload.contains(&(g, f, y, x))) {
            self.out
                .cands
                .push(Candidate::Hload(g, f, y, x, rule as RuleId));
        }
    }

    fn emit_call(&mut self, i: Inv, q: Method, x: A::X, rule: usize) {
        if self.wanted(self.s.call.contains(&(i, q, x))) {
            self.out
                .cands
                .push(Candidate::Call(i, q, x, rule as RuleId));
        }
    }

    fn emit_spts(&mut self, f: Field, h: Heap, x: A::X, rule: usize) {
        if self.wanted(self.s.spts.contains(&(f, h, x))) {
            self.out
                .cands
                .push(Candidate::Spts(f, h, x, rule as RuleId));
        }
    }

    fn emit_reach(&mut self, p: Method, m: CtxtStr, rule: usize) {
        if self.wanted(self.s.reach.contains(&(p, m))) {
            self.out.cands.push(Candidate::Reach(p, m, rule as RuleId));
        }
    }

    fn defer(&mut self, cand: Candidate<A::X>) {
        self.out.deferred += 1;
        self.out.cands.push(cand);
    }

    /// Read-only memoized compose. `Ok` results (including ⊥) are exact;
    /// `Err` means the merge phase must replay the mutating compose (which
    /// also does the stats accounting for that call).
    fn try_compose(&mut self, a: A::X, b: A::X, limits: Limits) -> Result<Option<A::X>, ()> {
        let s = self.s;
        if s.config.memoize {
            if let Some(&r) = self.st.memo.get(&(a, b, limits)) {
                self.out.compose_calls += 1;
                self.out.memo_hits += 1;
                if r.is_none() {
                    self.out.compose_bottom += 1;
                }
                return Ok(r);
            }
        }
        match s.abs.try_compose(a, b, limits) {
            Ok(r) => {
                self.out.compose_calls += 1;
                if s.config.memoize {
                    self.out.memo_misses += 1;
                    self.st.memo.insert((a, b, limits), r);
                }
                if r.is_none() {
                    self.out.compose_bottom += 1;
                }
                Ok(r)
            }
            Err(_) => Err(()),
        }
    }

    // Read-only join candidate collection, counting probes locally.

    fn collect_pts(&mut self, var: Var, query: CtxtStr, out: &mut Vec<(Heap, A::X)>) {
        let s = self.s;
        if let Some(bucket) = s.pts_by_var.get(&var) {
            let probes = if s.config.subsumption {
                let dead = &s.dead_pts;
                bucket.for_compatible(query, s.abs.interner(), |(h, x)| {
                    if !dead.contains(&(var, h, x)) {
                        out.push((h, x));
                    }
                })
            } else {
                bucket.for_compatible(query, s.abs.interner(), |v| out.push(v))
            };
            self.out.probes += probes;
        }
    }

    fn collect_call_by_inv(&mut self, i: Inv, query: CtxtStr, out: &mut Vec<(Method, A::X)>) {
        let s = self.s;
        if let Some(bucket) = s.call_by_inv.get(&i) {
            self.out.probes += bucket.for_compatible(query, s.abs.interner(), |v| out.push(v));
        }
    }

    fn collect_call_by_method(&mut self, p: Method, query: CtxtStr, out: &mut Vec<(Inv, A::X)>) {
        let s = self.s;
        if let Some(bucket) = s.call_by_method.get(&p) {
            self.out.probes += bucket.for_compatible(query, s.abs.interner(), |v| out.push(v));
        }
    }

    fn collect_hload(&mut self, g: Heap, f: Field, query: CtxtStr, out: &mut Vec<(Var, A::X)>) {
        let s = self.s;
        if let Some(bucket) = s.hload_by_gf.get(&(g, f)) {
            self.out.probes += bucket.for_compatible(query, s.abs.interner(), |v| out.push(v));
        }
    }

    fn collect_hpts(&mut self, g: Heap, f: Field, query: CtxtStr, out: &mut Vec<(Heap, A::X)>) {
        let s = self.s;
        if let Some(bucket) = s.hpts_by_gf.get(&(g, f)) {
            self.out.probes += bucket.for_compatible(query, s.abs.interner(), |v| out.push(v));
        }
    }

    // Rule drivers: one per derived relation, evaluating every Figure 3
    // rule body the delta can occupy. Each emits its consequences in a
    // fixed order, so the candidate stream is deterministic.

    /// New + Static + SLoad (reach role).
    fn drive_reach(&mut self, p: Method, m: CtxtStr) {
        let s = self.s;
        let ix = s.ix;
        let t = self.prof_start();
        if let Some(allocs) = ix.allocs_by_method.get(&p) {
            for &(h, y) in allocs {
                match s.abs.try_record(m) {
                    Ok(x) => self.emit_pts(y, h, x, rule::NEW),
                    Err(_) => self.defer(Candidate::DefRecord(y, h, m)),
                }
            }
        }
        self.prof_rule(t, rule::NEW);
        let t = self.prof_start();
        if let Some(statics) = ix.statics_by_method.get(&p) {
            for &(i, q) in statics {
                match s.abs.try_merge_s(CtxtElem::of_inv(i), m) {
                    Ok(c) => self.emit_call(i, q, c, rule::STATIC),
                    Err(_) => self.defer(Candidate::DefMergeS(i, q, m)),
                }
            }
        }
        self.prof_rule(t, rule::STATIC);
        let t = self.prof_start();
        if let Some(loads) = ix.static_loads_by_method.get(&p) {
            let mut facts = mem::take(&mut self.st.scratch_heap);
            for &(f, z) in loads {
                facts.clear();
                if let Some(fs) = s.spts_by_field.get(&f) {
                    facts.extend_from_slice(fs);
                }
                for &(h, b) in facts.iter() {
                    match s.abs.try_load_global(b, m) {
                        Ok(x) => self.emit_pts(z, h, x, rule::SLOAD),
                        Err(_) => self.defer(Candidate::DefLoadGlobal(z, h, b, m)),
                    }
                }
            }
            self.st.scratch_heap = facts;
        }
        self.prof_rule(t, rule::SLOAD);
    }

    /// Assign, Load, Store (both roles), Param (actual role), Ret (return
    /// role), SStore, Virt.
    fn drive_pts(&mut self, z: Var, h: Heap, b: A::X) {
        let s = self.s;
        let ix = s.ix;
        let t = self.prof_start();
        if let Some(targets) = ix.assign_from.get(&z) {
            for &y in targets {
                self.emit_pts(y, h, b, rule::ASSIGN);
            }
        }
        self.prof_rule(t, rule::ASSIGN);
        let t = self.prof_start();
        if let Some(loads) = ix.loads_by_base.get(&z) {
            for &(f, dst) in loads {
                self.emit_hload(h, f, dst, b, rule::LOAD);
            }
        }
        self.prof_rule(t, rule::LOAD);
        let t = self.prof_start();
        if let Some(stores) = ix.stores_by_value.get(&z) {
            let query = s.abs.dst_boundary(b);
            let limits = s.limits_store();
            let mut cand = mem::take(&mut self.st.scratch_heap);
            for &(f, base) in stores {
                cand.clear();
                self.collect_pts(base, query, &mut cand);
                for &(g, c) in cand.iter() {
                    let inv_c = s.abs.invert(c);
                    match self.try_compose(b, inv_c, limits) {
                        Ok(Some(a)) => self.emit_hpts(g, f, h, a, rule::STORE),
                        Ok(None) => {}
                        Err(()) => self.defer(Candidate::DefComposeHpts(g, f, h, b, inv_c)),
                    }
                }
            }
            self.st.scratch_heap = cand;
        }
        if let Some(stores) = ix.stores_by_base.get(&z) {
            let query = s.abs.dst_boundary(b);
            let inv_c = s.abs.invert(b);
            let limits = s.limits_store();
            let mut cand = mem::take(&mut self.st.scratch_heap);
            for &(f, value) in stores {
                cand.clear();
                self.collect_pts(value, query, &mut cand);
                for &(hh, bv) in cand.iter() {
                    match self.try_compose(bv, inv_c, limits) {
                        Ok(Some(a)) => self.emit_hpts(h, f, hh, a, rule::STORE),
                        Ok(None) => {}
                        Err(()) => self.defer(Candidate::DefComposeHpts(h, f, hh, bv, inv_c)),
                    }
                }
            }
            self.st.scratch_heap = cand;
        }
        self.prof_rule(t, rule::STORE);
        let t = self.prof_start();
        if let Some(actuals) = ix.actuals_by_var.get(&z) {
            let query = s.abs.dst_boundary(b);
            let limits = s.limits_flow();
            let mut cand = mem::take(&mut self.st.scratch_method);
            for &(i, o) in actuals {
                cand.clear();
                self.collect_call_by_inv(i, query, &mut cand);
                for &(p, c) in cand.iter() {
                    let Some(&y) = ix.formal_of.get(&(p, o)) else {
                        continue;
                    };
                    match self.try_compose(b, c, limits) {
                        Ok(Some(a)) => self.emit_pts(y, h, a, rule::PARAM),
                        Ok(None) => {}
                        Err(()) => {
                            self.defer(Candidate::DefComposePts(y, h, b, c, rule::PARAM as RuleId))
                        }
                    }
                }
            }
            self.st.scratch_method = cand;
        }
        self.prof_rule(t, rule::PARAM);
        let t = self.prof_start();
        if let Some(returns) = ix.returns_by_var.get(&z) {
            let query = s.abs.dst_boundary(b);
            let limits = s.limits_flow();
            let mut cand = mem::take(&mut self.st.scratch_inv);
            for &p in returns {
                cand.clear();
                self.collect_call_by_method(p, query, &mut cand);
                for &(i, c) in cand.iter() {
                    let inv_c = s.abs.invert(c);
                    let composed = match self.try_compose(b, inv_c, limits) {
                        Ok(Some(a)) => Some(a),
                        Ok(None) => continue,
                        Err(()) => None,
                    };
                    if let Some(ys) = ix.assign_return_by_inv.get(&i) {
                        for &y in ys {
                            match composed {
                                Some(a) => self.emit_pts(y, h, a, rule::RET),
                                None => self.defer(Candidate::DefComposePts(
                                    y,
                                    h,
                                    b,
                                    inv_c,
                                    rule::RET as RuleId,
                                )),
                            }
                        }
                    }
                }
            }
            self.st.scratch_inv = cand;
        }
        self.prof_rule(t, rule::RET);
        let t = self.prof_start();
        if let Some(fields) = ix.static_stores_by_var.get(&z) {
            for &f in fields {
                match s.abs.try_globalize(b) {
                    Ok(g) => self.emit_spts(f, h, g, rule::SSTORE),
                    Err(_) => self.defer(Candidate::DefGlobalize(f, h, b)),
                }
            }
        }
        self.prof_rule(t, rule::SSTORE);
        let t = self.prof_start();
        if let Some(virtuals) = ix.virtuals_by_recv.get(&z) {
            let t = ix.type_of_heap[h.index()];
            let class = ix.class_of_heap[h.index()];
            let limits = s.limits_flow();
            for &(i, sig) in virtuals {
                let Some(q) = ix.resolve(t, sig) else {
                    continue;
                };
                let site = MergeSite {
                    inv: CtxtElem::of_inv(i),
                    heap: CtxtElem::of_heap(h),
                    class: CtxtElem::of_type(class),
                };
                match s.abs.try_merge(site, b) {
                    Ok(c) => {
                        self.emit_call(i, q, c, rule::VIRT);
                        if let Some(&y) = ix.this_of_method.get(&q) {
                            match self.try_compose(b, c, limits) {
                                Ok(Some(a)) => self.emit_pts(y, h, a, rule::VIRT),
                                Ok(None) => {}
                                Err(()) => self.defer(Candidate::DefComposePts(
                                    y,
                                    h,
                                    b,
                                    c,
                                    rule::VIRT as RuleId,
                                )),
                            }
                        }
                    }
                    // The call edge itself needs interning: replay the
                    // whole consequent sequentially.
                    Err(_) => self.defer(Candidate::DefVirt(i, q, h, b)),
                }
            }
        }
        self.prof_rule(t, rule::VIRT);
    }

    /// Ind, hpts role.
    fn drive_hpts(&mut self, g: Heap, f: Field, h: Heap, b: A::X) {
        let s = self.s;
        let t = self.prof_start();
        let query = s.abs.dst_boundary(b);
        let limits = s.limits_flow();
        let mut cand = mem::take(&mut self.st.scratch_var);
        cand.clear();
        self.collect_hload(g, f, query, &mut cand);
        for &(y, c) in cand.iter() {
            match self.try_compose(b, c, limits) {
                Ok(Some(a)) => self.emit_pts(y, h, a, rule::IND),
                Ok(None) => {}
                Err(()) => self.defer(Candidate::DefComposePts(y, h, b, c, rule::IND as RuleId)),
            }
        }
        self.st.scratch_var = cand;
        self.prof_rule(t, rule::IND);
    }

    /// Ind, hload role.
    fn drive_hload(&mut self, g: Heap, f: Field, y: Var, c: A::X) {
        let s = self.s;
        let t = self.prof_start();
        let query = s.abs.src_boundary(c);
        let limits = s.limits_flow();
        let mut cand = mem::take(&mut self.st.scratch_heap);
        cand.clear();
        self.collect_hpts(g, f, query, &mut cand);
        for &(h, b) in cand.iter() {
            match self.try_compose(b, c, limits) {
                Ok(Some(a)) => self.emit_pts(y, h, a, rule::IND),
                Ok(None) => {}
                Err(()) => self.defer(Candidate::DefComposePts(y, h, b, c, rule::IND as RuleId)),
            }
        }
        self.st.scratch_heap = cand;
        self.prof_rule(t, rule::IND);
    }

    /// SLoad, spts role.
    fn drive_spts(&mut self, f: Field, h: Heap, b: A::X) {
        let s = self.s;
        let ix = s.ix;
        let t = self.prof_start();
        if let Some(loaders) = ix.static_loads_by_field.get(&f) {
            for &z in loaders {
                let p = s.program.var_method[z.index()];
                if let Some(ms) = s.reach_by_method.get(&p) {
                    for &m in ms.iter() {
                        match s.abs.try_load_global(b, m) {
                            Ok(x) => self.emit_pts(z, h, x, rule::SLOAD),
                            Err(_) => self.defer(Candidate::DefLoadGlobal(z, h, b, m)),
                        }
                    }
                }
            }
        }
        self.prof_rule(t, rule::SLOAD);
    }

    /// Reach + Param (call role) + Ret (call role).
    fn drive_call(&mut self, i: Inv, p: Method, c: A::X) {
        let s = self.s;
        let ix = s.ix;
        let t = self.prof_start();
        let m = s.abs.target(c);
        self.emit_reach(p, m, rule::REACH);
        self.prof_rule(t, rule::REACH);
        let t = self.prof_start();
        if let Some(actuals) = ix.actuals_by_inv.get(&i) {
            let query = s.abs.src_boundary(c);
            let limits = s.limits_flow();
            let mut cand = mem::take(&mut self.st.scratch_heap);
            for &(o, z) in actuals {
                let Some(&y) = ix.formal_of.get(&(p, o)) else {
                    continue;
                };
                cand.clear();
                self.collect_pts(z, query, &mut cand);
                for &(h, b) in cand.iter() {
                    match self.try_compose(b, c, limits) {
                        Ok(Some(a)) => self.emit_pts(y, h, a, rule::PARAM),
                        Ok(None) => {}
                        Err(()) => {
                            self.defer(Candidate::DefComposePts(y, h, b, c, rule::PARAM as RuleId))
                        }
                    }
                }
            }
            self.st.scratch_heap = cand;
        }
        self.prof_rule(t, rule::PARAM);
        let t = self.prof_start();
        if let (Some(ys), Some(returns)) = (
            ix.assign_return_by_inv.get(&i),
            ix.returns_by_method.get(&p),
        ) {
            let query = s.abs.dst_boundary(c);
            // `c` is fixed for this delta, so its inverse is loop-invariant.
            let inv_c = s.abs.invert(c);
            let limits = s.limits_flow();
            let mut cand = mem::take(&mut self.st.scratch_heap);
            for &z in returns {
                cand.clear();
                self.collect_pts(z, query, &mut cand);
                for &(h, b) in cand.iter() {
                    let composed = match self.try_compose(b, inv_c, limits) {
                        Ok(Some(a)) => Some(a),
                        Ok(None) => continue,
                        Err(()) => None,
                    };
                    for &y in ys {
                        match composed {
                            Some(a) => self.emit_pts(y, h, a, rule::RET),
                            None => self.defer(Candidate::DefComposePts(
                                y,
                                h,
                                b,
                                inv_c,
                                rule::RET as RuleId,
                            )),
                        }
                    }
                }
            }
            self.st.scratch_heap = cand;
        }
        self.prof_rule(t, rule::RET);
    }
}

impl<'p, A: Abstraction> Solver<'p, A> {
    /// Runs the queues to empty in rounds with `threads` workers. Seeding
    /// (entry points, an incremental delta, or over-delete marks) is the
    /// caller's job, so the same loop serves fresh solves, extensions and
    /// both DRed phases. With a retract sink installed the sink's
    /// worklists are drained instead of the solver's.
    pub(super) fn fixpoint(&mut self, threads: usize) {
        self.stats.threads_used = threads;
        let mut states: Vec<WorkerState<A::X>> =
            (0..threads).map(|_| WorkerState::default()).collect();
        // Worker 0's shard is the persistent memo: handed out here and
        // folded back, with the merge phase's deferred composes, below.
        states[0].memo = mem::take(&mut self.compose_memo);

        loop {
            // Phase 1: take the queues as this round's frontier (the merge
            // below refills fresh ones). Marked facts are always driven;
            // live `pts` deltas retired by subsumption since they were
            // queued are skipped.
            let frontier = match self.retract.as_mut() {
                Some(sink) => mem::take(&mut sink.queues),
                None => {
                    let mut frontier = mem::take(&mut self.queues);
                    if self.config.subsumption {
                        frontier.pts.retain(|t| !self.dead_pts.contains(t));
                    }
                    frontier
                }
            };
            let n = frontier.len();
            if n == 0 {
                break;
            }
            self.stats.par_rounds += 1;
            self.stats.par_frontier_peak = self.stats.par_frontier_peak.max(n);
            self.stats.events += n;
            // Per-round timing span: inert (one relaxed load) unless
            // tracing is on. Purely observational — it must never feed
            // back into the candidate stream or merge order.
            let mut round_span = ctxform_obs::span("solver.round")
                .field("round", self.stats.par_rounds)
                .field("frontier", n);

            // Phase 2: evaluate chunks. With one worker, or a one-chunk
            // frontier, every chunk runs inline on the calling thread —
            // through the same `process_chunk` and the same worker state
            // striding would pick (worker 0 owns chunk 0, and with one
            // thread every chunk), so the candidate stream is unaffected.
            let eval_start = if self.config.profile {
                Some(Instant::now())
            } else {
                None
            };
            let chunk = chunk_size(n, threads);
            let n_chunks = n.div_ceil(chunk);
            let mut outs: Vec<Option<ChunkOut<A::X>>> = Vec::with_capacity(n_chunks);
            outs.resize_with(n_chunks, || None);
            if threads == 1 || n_chunks == 1 {
                for (ci, out) in outs.iter_mut().enumerate() {
                    let lo = ci * chunk;
                    let hi = (lo + chunk).min(n);
                    *out = Some(process_chunk(&*self, &mut states[0], &frontier, lo, hi));
                }
            } else {
                let solver_ref = &*self;
                let frontier_ref = &frontier;
                std::thread::scope(|scope| {
                    let mut handles = Vec::with_capacity(threads);
                    for (w, st) in states.iter_mut().enumerate() {
                        handles.push(scope.spawn(move || {
                            let mut mine = Vec::new();
                            let mut ci = w;
                            while ci < n_chunks {
                                let lo = ci * chunk;
                                let hi = (lo + chunk).min(n);
                                mine.push((
                                    ci,
                                    process_chunk(solver_ref, st, frontier_ref, lo, hi),
                                ));
                                ci += threads;
                            }
                            mine
                        }));
                    }
                    for handle in handles {
                        for (ci, out) in handle.join().expect("solver worker panicked") {
                            outs[ci] = Some(out);
                        }
                    }
                });
            }

            // Phase 3: merge sequentially, in frontier order. The frontier
            // itself is no longer needed.
            drop(frontier);
            let eval_ns = eval_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
            let merge_start = eval_start.map(|_| Instant::now());
            let mut merged = 0usize;
            for out in outs {
                let out = out.expect("every chunk processed");
                self.stats.probes += out.probes;
                self.stats.compose_calls += out.compose_calls;
                self.stats.compose_bottom += out.compose_bottom;
                self.stats.compose_memo_hits += out.memo_hits;
                self.stats.compose_memo_misses += out.memo_misses;
                self.stats.par_deferred += out.deferred;
                self.stats.rule_time.merge(&out.rule_time);
                merged += out.cands.len();
                for cand in out.cands {
                    self.apply_candidate(cand);
                }
            }
            round_span.record("candidates", merged);
            if let Some(t) = merge_start {
                let merge_ns = t.elapsed().as_nanos() as u64;
                self.stats.phase_profile.eval_ns += eval_ns;
                self.stats.phase_profile.merge_ns += merge_ns;
                if self.stats.round_profiles.len() < MAX_ROUND_PROFILES {
                    self.stats.round_profiles.push(RoundProfile {
                        round: self.stats.par_rounds,
                        frontier: n,
                        candidates: merged,
                        eval_ns,
                        merge_ns,
                    });
                }
            }
        }
        let mut memo = mem::take(&mut states[0].memo);
        memo.extend(self.compose_memo.drain());
        self.compose_memo = memo;
    }

    /// Applies one worker candidate through the ordinary insertion
    /// methods; `Def*` variants replay their interning operation first.
    fn apply_candidate(&mut self, cand: Candidate<A::X>) {
        match cand {
            Candidate::Pts(y, h, x, r) => self.insert_pts(y, h, x, r.into()),
            Candidate::Hpts(g, f, h, x, r) => self.insert_hpts(g, f, h, x, r.into()),
            Candidate::Hload(g, f, y, x, r) => self.insert_hload(g, f, y, x, r.into()),
            Candidate::Call(i, q, x, r) => self.insert_call(i, q, x, r.into()),
            Candidate::Spts(f, h, x, r) => self.insert_spts(f, h, x, r.into()),
            Candidate::Reach(p, m, r) => self.insert_reach(p, m, r.into()),
            Candidate::DefRecord(y, h, m) => {
                let x = self.abs.record(m);
                self.insert_pts(y, h, x, rule::NEW);
            }
            Candidate::DefComposePts(y, h, a, b, r) => {
                if let Some(x) = self.compose(a, b, self.limits_flow()) {
                    self.insert_pts(y, h, x, r.into());
                }
            }
            Candidate::DefComposeHpts(g, f, h, a, b) => {
                if let Some(x) = self.compose(a, b, self.limits_store()) {
                    self.insert_hpts(g, f, h, x, rule::STORE);
                }
            }
            Candidate::DefMergeS(i, q, m) => {
                let c = self.abs.merge_s(CtxtElem::of_inv(i), m);
                self.insert_call(i, q, c, rule::STATIC);
            }
            Candidate::DefLoadGlobal(z, h, b, m) => {
                let x = self.abs.load_global(b, m);
                self.insert_pts(z, h, x, rule::SLOAD);
            }
            Candidate::DefGlobalize(f, h, b) => {
                let g = self.abs.globalize(b);
                self.insert_spts(f, h, g, rule::SSTORE);
            }
            Candidate::DefVirt(i, q, h, b) => {
                let ix = self.ix;
                let class = ix.class_of_heap[h.index()];
                let site = MergeSite {
                    inv: CtxtElem::of_inv(i),
                    heap: CtxtElem::of_heap(h),
                    class: CtxtElem::of_type(class),
                };
                let c = self.abs.merge(site, b);
                self.insert_call(i, q, c, rule::VIRT);
                if let Some(&y) = ix.this_of_method.get(&q) {
                    let limits = self.limits_flow();
                    if let Some(a) = self.compose(b, c, limits) {
                        self.insert_pts(y, h, a, rule::VIRT);
                    }
                }
            }
        }
    }
}
