//! The traced run's layer attribution.
//!
//! Three sources, all outside the program under test:
//!
//! - the server's own span tree (`server.request` → `queue_wait` /
//!   `solve` / `serialize` / `reply_wait`), read back through the `trace`
//!   op and matched to the benchmark's requests by trace id;
//! - an in-process *replay* of one unit's calls into each crate's public
//!   functions, timed call by call (compile, digest, index, solve, clone,
//!   extend, fact digest, points-to lookups, demand slice, gated solve);
//! - the server's `stats` counters.
//!
//! Every time is a per-unit sum (per pass, per session, per cold query),
//! so the self-time layers of a unit add up to its end-to-end time; what
//! they do not cover is reported as `unexplained`.

use std::collections::BTreeMap;
use std::sync::Arc;

use ctxform::{analyze, analyze_sliced, demand_slice, AnalysisDb, ExtendOutcome};
use ctxform_ir::{Program, ProgramDiff, Var};
use ctxform_server::db::{ci_digest, program_digest};
use ctxform_server::Json;

use crate::inputs;
use crate::oracle::{var_index, SessionEntry};
use crate::serve::Conn;
use crate::util::timed;
use crate::workloads::{add_solver_stats, Sent, SessionPlan};

pub type LayerMap = BTreeMap<String, f64>;

/// Endpoints whose span phases and reply sizes are reported.
pub const ENDPOINTS: [&str; 5] = [
    "load_source",
    "analyze",
    "points_to_batch",
    "update",
    "query",
];
/// Span phases of a served request, as recorded by the server.
pub const PHASES: [(&str, &str); 4] = [
    ("server.queue_wait", "server.queue_wait_ms"),
    ("server.solve", "server.solve_ms"),
    ("server.serialize", "server.serialize_ms"),
    ("server.reply_wait", "server.reply_wait_ms"),
];

fn add(map: &mut LayerMap, name: &str, value: f64) {
    *map.entry(name.to_owned()).or_default() += value;
}

/// Reads back the span trees of `sent` and folds each request's phases
/// into `unit` (per endpoint), plus the client overhead (latency minus
/// server-side `took_us`) and the reply sizes.
pub fn span_layers(conn: &mut Conn, sent: &[Sent], unit: &mut LayerMap) -> Result<(), String> {
    let reply = conn.call(&Json::obj([
        ("op", Json::str("trace")),
        ("limit", Json::int(4096)),
    ]))?;
    let records = reply
        .json
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("trace reply lacks `records`")?;
    let mut roots: BTreeMap<&str, u64> = BTreeMap::new();
    for rec in records {
        if rec.get("name").and_then(Json::as_str) == Some("server.request") {
            let trace = rec
                .get("fields")
                .and_then(|f| f.get("trace"))
                .and_then(Json::as_str);
            if let (Some(trace), Some(id)) = (trace, rec.get("id").and_then(Json::as_u64)) {
                roots.insert(trace, id);
            }
        }
    }
    let mut phase_us: BTreeMap<(u64, &str), f64> = BTreeMap::new();
    for rec in records {
        let (Some(parent), Some(name), Some(dur)) = (
            rec.get("parent").and_then(Json::as_u64),
            rec.get("name").and_then(Json::as_str),
            rec.get("dur_us").and_then(Json::as_f64),
        ) else {
            continue;
        };
        *phase_us.entry((parent, name)).or_default() += dur;
    }
    for s in sent {
        let Some(&root) = roots.get(s.trace.as_str()) else {
            return Err(format!("no span tree for request {}", s.trace));
        };
        for (span, metric) in PHASES {
            let us = phase_us.get(&(root, span)).copied().unwrap_or(0.0);
            add(unit, &format!("{metric}.{}", s.endpoint), us / 1000.0);
        }
        let took = s.took_ms.ok_or("traced reply lacks `took_us`")?;
        add(unit, "server.client_overhead_ms", s.latency_ms - took);
        add(
            unit,
            &format!("_reply_bytes.{}", s.endpoint),
            s.bytes as f64,
        );
        add(unit, &format!("_replies.{}", s.endpoint), 1.0);
    }
    Ok(())
}

/// The server's cumulative cache counters.
pub fn server_counters(conn: &mut Conn) -> Result<[f64; 4], String> {
    let reply = conn.call(&Json::obj([("op", Json::str("stats"))]))?;
    let cache = reply.json.get("cache").ok_or("stats reply lacks `cache`")?;
    let get = |k: &str| cache.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    Ok([
        get("hits"),
        get("misses"),
        get("incremental_reuse"),
        get("incremental_fallback"),
    ])
}

pub const COUNTER_NAMES: [&str; 4] = [
    "server.cache_hits",
    "server.cache_misses",
    "server.incremental_reuse",
    "server.incremental_fallback",
];

/// What the server does for `load_source`: compile, then digest twice
/// (once to route, once to register).
fn replay_load(source: &str, unit: &mut LayerMap) -> Program {
    let (program, compile_ms) = timed(|| inputs::compile(source));
    add(unit, "minijava.compile_ms", compile_ms);
    for _ in 0..2 {
        let (_, ms) = timed(|| program_digest(&program));
        add(unit, "server.program_digest_ms", ms);
    }
    program
}

/// Points-to lookups of one `points_to_batch` read.
fn replay_reads(result: &ctxform::AnalysisResult, vars: &[Var], unit: &mut LayerMap) {
    let (_, ms) = timed(|| {
        for &v in vars {
            std::hint::black_box(result.ci.points_to(v));
        }
    });
    add(unit, "result.points_to_ms", ms);
    add(unit, "_points_to_vars", vars.len() as f64);
}

/// Replays one edit session's server-side work in-process, call by call,
/// mirroring what the `load_source`, `analyze`, `points_to_batch` and
/// `update` handlers do.
pub fn replay_session(plan: &SessionPlan, entry: &SessionEntry, label: &str) -> LayerMap {
    let mut unit = LayerMap::new();
    let config = inputs::tstring(label).with_profiling();
    let program = replay_load(&plan.base, &mut unit);
    let index = var_index(&program);
    let pool: Vec<Var> = entry
        .pool
        .iter()
        .map(|(m, v)| index[&(m.as_str(), v.as_str())])
        .collect();
    drop(index);
    let read_vars = |step: usize| -> Vec<Vec<Var>> {
        plan.reads[step]
            .iter()
            .map(|batch| batch.iter().map(|&i| pool[i]).collect())
            .collect()
    };
    // analyze: a fresh solve, then the reply's CI digest.
    let (result, solve_ms) = timed(|| analyze(&program, &config));
    let mut layers = Some(&mut unit);
    add_solver_stats(&mut layers, &result, solve_ms);
    let (_, digest_ms) = timed(|| ci_digest(&result));
    add(&mut unit, "result.ci_digest_ms", digest_ms);
    for vars in read_vars(0) {
        replay_reads(&result, &vars, &mut unit);
    }
    // The first update finds no extendable database (analyze keeps none)
    // and solves from scratch.
    let (next, compile_ms) = timed(|| inputs::compile(&plan.appends[0]));
    add(&mut unit, "minijava.compile_ms", compile_ms);
    let (_, ms) = timed(|| program_digest(&next));
    add(&mut unit, "server.program_digest_ms", ms);
    let (mut db, solve_ms) = timed(|| AnalysisDb::solve(next, &config));
    let mut layers = Some(&mut unit);
    add_solver_stats(&mut layers, db.result(), solve_ms);
    let scratch_derived = db.result().stats.rule_derived.total() as f64;
    let (_, ms) = timed(|| std::hint::black_box(db.result().clone()));
    add(&mut unit, "db.clone_ms", ms);
    let (_, ms) = timed(|| db.fact_digest());
    add(&mut unit, "db.fact_digest_ms", ms);
    for vars in read_vars(1) {
        replay_reads(db.result(), &vars, &mut unit);
    }
    // Later updates clone the cached database and extend it.
    let mut extend_derived = 0.0;
    for step in 1..=inputs::APPEND_STEPS {
        let next = if step < inputs::APPEND_STEPS {
            let (next, ms) = timed(|| inputs::compile(&plan.appends[step]));
            add(&mut unit, "minijava.compile_ms", ms);
            next
        } else {
            let (next, ms) = timed(|| ctxform_ir::text::parse(&plan.retract_facts));
            add(&mut unit, "ir.text_parse_ms", ms);
            next.expect("emitted facts parse")
        };
        let (_, ms) = timed(|| program_digest(&next));
        add(&mut unit, "server.program_digest_ms", ms);
        let (mut work, clone_ms) = timed(|| db.clone());
        add(&mut unit, "db.clone_ms", clone_ms);
        let (_, diff_ms) = timed(|| ProgramDiff::between(work.program(), &next));
        add(&mut unit, "ir.diff_ms", diff_ms);
        let (outcome, extend_ms) = timed(|| work.extend(next));
        let s = &work.result().stats;
        match outcome {
            ExtendOutcome::Retracted => {
                add(&mut unit, "db.retract_ms", (extend_ms - diff_ms).max(0.0));
                add(&mut unit, "db.overdeleted", s.overdeleted as f64);
                add(&mut unit, "db.rederived", s.rederived as f64);
            }
            _ => {
                add(&mut unit, "db.extend_ms", (extend_ms - diff_ms).max(0.0));
                extend_derived += s.rule_derived.total() as f64;
            }
        }
        let (_, ms) = timed(|| std::hint::black_box(work.result().clone()));
        add(&mut unit, "db.clone_ms", ms);
        let (_, ms) = timed(|| work.fact_digest());
        add(&mut unit, "db.fact_digest_ms", ms);
        for vars in read_vars(step + 1) {
            replay_reads(work.result(), &vars, &mut unit);
        }
        db = work;
    }
    let extends = (inputs::APPEND_STEPS - 1) as f64;
    unit.insert(
        "db.derived_ratio".into(),
        crate::util::ratio(extend_derived / extends, scratch_derived),
    );
    unit
}

/// Replays one cold query in-process: the load, the magic-sets slice and
/// the gated solve the `query` handler runs, then the comparator — a full
/// solve plus a lookup.
pub fn replay_cold(source: &str, method: &str, var: &str, label: &str) -> Result<LayerMap, String> {
    let mut unit = LayerMap::new();
    let program = replay_load(source, &mut unit);
    let root = *var_index(&program)
        .get(&(method, var))
        .ok_or_else(|| format!("replay: no root {method}::{var}"))?;
    let (slice, slice_ms) = timed(|| demand_slice(&program, &[root]));
    let slice = slice.map_err(|e| format!("replay: demand slice failed: {e}"))?;
    add(&mut unit, "demand.slice_ms", slice_ms);
    add(&mut unit, "demand.slice_tuples", slice.demanded() as f64);
    add(
        &mut unit,
        "demand.derivations_per_tuple",
        crate::util::ratio(slice.derivations as f64, slice.demanded() as f64),
    );
    let config = inputs::tstring(label).with_profiling();
    let (gated, gated_ms) = timed(|| analyze_sliced(&program, &config, Arc::new(slice)));
    add(&mut unit, "demand.gated_solve_ms", gated_ms);
    let mut layers = Some(&mut unit);
    add_solver_stats(&mut layers, &gated, gated_ms);
    let sliced_answer = gated.ci.points_to(root);
    let ((full, answer), lookup_ms) = timed(|| {
        let full = analyze(&program, &inputs::tstring(label));
        let answer = full.ci.points_to(root);
        (full, answer)
    });
    add(&mut unit, "demand.solve_lookup_ms", lookup_ms);
    if sliced_answer != answer {
        return Err(format!(
            "replay: sliced and exhaustive answers differ for {method}::{var}"
        ));
    }
    add(
        &mut unit,
        "demand.sliced_fact_ratio",
        crate::util::ratio(gated.stats.total() as f64, full.stats.total() as f64),
    );
    Ok(unit)
}
