//! The metric catalogue: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` lists exactly these (the self-test checks it).

use crate::layers::{ENDPOINTS, PHASES};

/// End-to-end metrics, reported by untraced runs of every workload.
pub const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_rate", "ratio"),
    ("pass_ms", "ms"),
    ("load_ms", "ms"),
    ("analyze_ms", "ms"),
    ("update_first_ms", "ms"),
    ("update_extend_ms", "ms"),
    ("update_retract_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("session_ms", "ms"),
    ("cold_query_ms", "ms"),
];

/// Per-layer metrics, reported by traced runs of every workload (zero
/// where the workload does not exercise the layer).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: &str, unit: &'static str| out.push((name.to_owned(), unit));
    push("minijava.compile_ms", "ms");
    push("ir.index_ms", "ms");
    push("ir.diff_ms", "ms");
    push("ir.text_parse_ms", "ms");
    push("server.program_digest_ms", "ms");
    push("solver.solve_ms", "ms");
    push("solver.seed_ms", "ms");
    push("solver.eval_ms", "ms");
    push("solver.merge_ms", "ms");
    for rule in ctxform::RULE_NAMES {
        push(&format!("solver.rule_ms.{rule}"), "ms");
    }
    push("solver.fired", "count");
    push("solver.derived", "count");
    push("solver.derived_ratio", "ratio");
    push("solver.probes", "count");
    push("solver.events", "count");
    push("solver.cs_facts", "count");
    push("solver.interned_contexts", "count");
    push("solver.bytes", "bytes");
    push("algebra.compose_calls", "count");
    push("algebra.compose_memo_hit_ratio", "ratio");
    push("algebra.compose_bottom_ratio", "ratio");
    push("db.clone_ms", "ms");
    push("db.fact_digest_ms", "ms");
    push("db.extend_ms", "ms");
    push("db.derived_ratio", "ratio");
    push("db.retract_ms", "ms");
    push("db.overdeleted", "count");
    push("db.rederived", "count");
    push("db.rederive_ratio", "ratio");
    push("result.ci_digest_ms", "ms");
    push("result.points_to_us", "us");
    push("demand.slice_ms", "ms");
    push("demand.gated_solve_ms", "ms");
    push("demand.slice_tuples", "count");
    push("demand.derivations_per_tuple", "ratio");
    push("demand.sliced_fact_ratio", "ratio");
    push("demand.solve_lookup_ms", "ms");
    for (_, metric) in PHASES {
        for endpoint in ENDPOINTS {
            push(&format!("{metric}.{endpoint}"), "ms");
        }
    }
    push("server.client_overhead_ms", "ms");
    push("server.cache_hits", "count");
    push("server.cache_misses", "count");
    push("server.incremental_reuse", "count");
    push("server.incremental_fallback", "count");
    for endpoint in ENDPOINTS {
        push(&format!("server.reply_bytes.{endpoint}"), "bytes");
    }
    push("obs.trace_overhead_pct", "%");
    push("reconcile.unexplained_ms", "ms");
    push("reconcile.unexplained_pct", "%");
    out
}
