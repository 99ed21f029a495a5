//! The three workloads: an in-process batch pass, an edit session over
//! loopback, and a cold demand query over loopback.
//!
//! Each runner performs one *unit* (a pass, a session, a cold query),
//! checks every answer against the oracle, and records client-side
//! latencies. A wrong answer or a failed request counts as a failed
//! operation and never aborts the run.

use std::collections::BTreeMap;
use std::time::Instant;

use ctxform::{analyze, AnalysisConfig, AnalysisResult};
use ctxform_server::db::ci_digest;
use ctxform_server::Json;

use crate::inputs::{self, Choices, APPEND_STEPS, EDIT_SEEDS, READS_PER_STEP};
use crate::oracle::{ColdEntry, Oracle, SessionEntry};
use crate::serve::{Conn, Reply};
use crate::util::{answer_hash, ms_since, timed};

/// Operation counts and the first few failure messages of a run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` marks it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(message);
            }
        }
    }
}

/// Named latency samples in milliseconds.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Per-unit layer times and counters of a traced run (`None` when the
/// run is untraced).
pub type Layers<'a> = Option<&'a mut crate::layers::LayerMap>;

fn add(layers: &mut Layers<'_>, name: &str, value: f64) {
    if let Some(map) = layers.as_deref_mut() {
        *map.entry(name.to_owned()).or_default() += value;
    }
}

/// Folds a solve's statistics into the per-unit layer map.
pub fn add_solver_stats(layers: &mut Layers<'_>, r: &AnalysisResult, wall_ms: f64) {
    if layers.is_none() {
        return;
    }
    let s = &r.stats;
    add(layers, "solver.solve_ms", wall_ms);
    add(
        layers,
        "solver.seed_ms",
        s.phase_profile.seed_ns as f64 / 1e6,
    );
    add(
        layers,
        "solver.eval_ms",
        s.phase_profile.eval_ns as f64 / 1e6,
    );
    add(
        layers,
        "solver.merge_ms",
        s.phase_profile.merge_ns as f64 / 1e6,
    );
    for rule in ctxform::RULE_NAMES {
        let name = format!("solver.rule_ms.{rule}");
        add(layers, &name, s.rule_time.ns(rule) as f64 / 1e6);
    }
    add(layers, "solver.fired", s.rule_fired.total() as f64);
    add(layers, "solver.derived", s.rule_derived.total() as f64);
    add(layers, "solver.probes", s.probes as f64);
    add(layers, "solver.events", s.events as f64);
    add(layers, "solver.cs_facts", s.total() as f64);
    add(
        layers,
        "solver.interned_contexts",
        s.interned_contexts as f64,
    );
    add(layers, "solver.bytes", s.memory.total() as f64);
    add(layers, "algebra.compose_calls", s.compose_calls as f64);
    add(layers, "_compose_memo_hits", s.compose_memo_hits as f64);
    add(
        layers,
        "_compose_memo_lookups",
        (s.compose_memo_hits + s.compose_memo_misses) as f64,
    );
    add(layers, "_compose_bottom", s.compose_bottom as f64);
}

fn config_fields(label: &str) -> [(&'static str, Json); 3] {
    [
        ("abstraction", Json::str("tstring")),
        ("sensitivity", Json::str(label)),
        ("threads", Json::int(1)),
    ]
}

/// A request body with the served configuration and an optional trace id.
fn request(op: &str, fields: Vec<(&'static str, Json)>, trace: Option<String>) -> Json {
    let mut body = vec![("op", Json::str(op))];
    body.extend(fields);
    if let Some(id) = trace {
        body.push(("trace", Json::Str(id)));
    }
    Json::obj(body)
}

// ---------------------------------------------------------------- batch

/// One `batch` program, generated once at set-up.
pub struct BatchCase {
    pub name: &'static str,
    pub config: AnalysisConfig,
    pub source: String,
    /// `(ci_digest, cs_facts)` from the oracle.
    pub expected: Option<(u64, usize)>,
}

pub fn batch_cases(oracle: &Oracle, scale: usize) -> Vec<BatchCase> {
    inputs::BATCH_CASES
        .iter()
        .map(|&(name, label)| BatchCase {
            name,
            config: inputs::tstring(label),
            source: inputs::preset_source(name, scale),
            expected: oracle
                .batch(name, scale)
                .filter(|b| b.sensitivity == label)
                .map(|b| (b.ci_digest, b.cs_facts)),
        })
        .collect()
}

/// One pass: every case from MiniJava source to a checked CI result, in
/// a seeded order. Returns the pass time in ms.
pub fn batch_pass(
    cases: &[BatchCase],
    choices: &mut Choices,
    tally: &mut Tally,
    mut layers: Layers<'_>,
) -> f64 {
    let traced = layers.is_some();
    let order = choices.sample(cases.len(), cases.len());
    let mut pass_ms = 0.0;
    for &i in &order {
        let case = &cases[i];
        let started = Instant::now();
        let (program, compile_ms) = timed(|| inputs::compile(&case.source));
        let config = if traced {
            case.config.with_profiling()
        } else {
            case.config
        };
        let (result, solve_ms) = timed(|| analyze(&program, &config));
        let (digest, digest_ms) = timed(|| ci_digest(&result));
        tally.record(match case.expected {
            Some((ci, facts)) if ci == digest && facts == result.stats.total() => Ok(()),
            Some((ci, facts)) => Err(format!(
                "batch {}: ci digest {digest:016x} / {} facts, expected {ci:016x} / {facts}",
                case.name,
                result.stats.total()
            )),
            None => Err(format!("batch {}: no stored answer", case.name)),
        });
        pass_ms += ms_since(started);
        if traced {
            add(&mut layers, "minijava.compile_ms", compile_ms);
            add(&mut layers, "result.ci_digest_ms", digest_ms);
            add_solver_stats(&mut layers, &result, solve_ms);
            // Index construction happens inside the solve; timed on its
            // own (outside the pass) to show its share of `solver.solve_ms`.
            let (_, index_ms) = timed(|| ctxform_ir::ProgramIndex::new(&program));
            add(&mut layers, "ir.index_ms", index_ms);
        }
    }
    pass_ms
}

// --------------------------------------------------------- edit session

/// Everything a session sends, prepared before its clock starts.
pub struct SessionPlan {
    pub edit: usize,
    pub base: String,
    pub appends: Vec<String>,
    pub retract_facts: String,
    /// `reads[step][batch]`: read-pool indices of each read.
    pub reads: Vec<Vec<Vec<usize>>>,
}

pub fn plan_session(base_src: &str, entry: &SessionEntry, choices: &mut Choices) -> SessionPlan {
    let edit = choices.below(EDIT_SEEDS.len());
    let base = inputs::with_nonce(base_src, choices.nonce());
    let appends = inputs::append_revisions(&base, edit);
    let last_append = inputs::compile(appends.last().expect("appends"));
    let retracted = inputs::retract_revision(&last_append);
    let retract_facts = ctxform_ir::text::emit(&retracted);
    let reads = (0..APPEND_STEPS + 2)
        .map(|_| {
            (0..READS_PER_STEP)
                .map(|_| {
                    let vars = inputs::read_batch(entry.scale);
                    (0..vars).map(|_| choices.below(entry.pool.len())).collect()
                })
                .collect()
        })
        .collect();
    SessionPlan {
        edit,
        base,
        appends,
        retract_facts,
        reads,
    }
}

/// One served request of a traced unit: its trace id, endpoint and what
/// the client saw.
pub struct Sent {
    pub trace: String,
    pub endpoint: &'static str,
    pub latency_ms: f64,
    pub bytes: usize,
    pub took_ms: Option<f64>,
}

/// A client bound to one connection that numbers, times and (when
/// tracing) tags every request of a unit.
pub struct UnitClient<'a> {
    pub conn: &'a mut Conn,
    pub label: &'static str,
    /// Trace-id prefix; `None` sends untraced requests.
    pub trace_prefix: Option<String>,
    pub sent: Vec<Sent>,
    /// Sum of client-observed latencies of this unit's requests.
    pub total_ms: f64,
}

impl<'a> UnitClient<'a> {
    pub fn new(conn: &'a mut Conn, label: &'static str, trace_prefix: Option<String>) -> Self {
        UnitClient {
            conn,
            label,
            trace_prefix,
            sent: Vec::new(),
            total_ms: 0.0,
        }
    }

    fn call(
        &mut self,
        endpoint: &'static str,
        fields: Vec<(&'static str, Json)>,
    ) -> Result<Reply, String> {
        let trace = self
            .trace_prefix
            .as_ref()
            .map(|p| format!("{p}-{}", self.sent.len()));
        let reply = self.conn.call(&request(endpoint, fields, trace.clone()));
        if let (Some(trace), Ok(r)) = (trace, &reply) {
            self.sent.push(Sent {
                trace,
                endpoint,
                latency_ms: r.latency_ms,
                bytes: r.bytes,
                took_ms: r
                    .json
                    .get("took_us")
                    .and_then(Json::as_f64)
                    .map(|us| us / 1000.0),
            });
        }
        if let Ok(r) = &reply {
            self.total_ms += r.latency_ms;
        }
        reply
    }

    fn program_fields(&self, digest: &str) -> Vec<(&'static str, Json)> {
        let mut fields = vec![("program", Json::str(digest))];
        fields.extend(config_fields(self.label));
        fields
    }
}

fn digest_field(reply: &Reply, key: &str) -> Result<u64, String> {
    reply
        .str(key)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| format!("reply lacks hex `{key}`"))
}

/// Sends the step's `points_to_batch` reads against `digest` and checks
/// each answer against the revision's stored read hashes.
fn session_reads(
    d: &mut UnitClient<'_>,
    entry: &SessionEntry,
    expected: &[u32],
    digest: &str,
    reads: &[Vec<usize>],
    samples: &mut Samples,
    tally: &mut Tally,
) {
    for batch in reads {
        let vars = batch
            .iter()
            .map(|&i| {
                let (m, v) = &entry.pool[i];
                Json::obj([("method", Json::str(m)), ("var", Json::str(v))])
            })
            .collect();
        let mut fields = d.program_fields(digest);
        fields.push(("vars", Json::Arr(vars)));
        let outcome = d.call("points_to_batch", fields).and_then(|reply| {
            samples.push("query_ms", reply.latency_ms);
            let results = reply
                .json
                .get("results")
                .and_then(Json::as_arr)
                .ok_or("points_to_batch reply lacks `results`")?;
            if results.len() != batch.len() {
                return Err("points_to_batch answered the wrong number of variables".into());
            }
            for (slot, &i) in results.iter().zip(batch) {
                let heaps: Vec<&str> = slot
                    .get("heaps")
                    .and_then(Json::as_arr)
                    .ok_or("points_to_batch slot lacks `heaps`")?
                    .iter()
                    .filter_map(Json::as_str)
                    .collect();
                if answer_hash(&heaps) != expected[i] {
                    let (m, v) = &entry.pool[i];
                    return Err(format!("points_to({m}::{v}) differs from the oracle"));
                }
            }
            Ok(())
        });
        tally.record(outcome);
    }
}

/// One edit session. Returns the session time (the sum of its request
/// latencies) when every step went through, `None` when a request failed
/// and the rest of the session had to be skipped.
pub fn session(
    d: &mut UnitClient<'_>,
    plan: &SessionPlan,
    entry: &SessionEntry,
    samples: &mut Samples,
    tally: &mut Tally,
) -> Option<f64> {
    let edits = &entry.edits[plan.edit];
    // Load (a program the server has not seen).
    let loaded = d.call("load_source", vec![("source", Json::str(&plan.base))]);
    let mut digest = match loaded.and_then(|r| {
        samples.push("load_ms", r.latency_ms);
        r.str("program")
            .map(str::to_owned)
            .ok_or_else(|| "load reply lacks `program`".to_owned())
    }) {
        Ok(digest) => {
            tally.record(Ok(()));
            digest
        }
        Err(e) => {
            tally.record(Err(format!("session load: {e}")));
            return None;
        }
    };
    // Analyze (a cache miss).
    let fields = d.program_fields(&digest);
    let analyzed = d.call("analyze", fields).and_then(|r| {
        samples.push("analyze_ms", r.latency_ms);
        match digest_field(&r, "ci_digest")? {
            got if got == entry.base_ci_digest => Ok(()),
            got => Err(format!(
                "analyze ci digest {got:016x} differs from the oracle"
            )),
        }
    });
    let analyzed_ok = analyzed.is_ok();
    tally.record(analyzed.map_err(|e| format!("session analyze: {e}")));
    if !analyzed_ok {
        return None;
    }
    session_reads(
        d,
        entry,
        &entry.base.reads,
        &digest,
        &plan.reads[0],
        samples,
        tally,
    );
    // Additive source updates, then the single-tuple retraction as facts.
    // `edits[step]` holds the expected revision after each update: the
    // `APPEND_STEPS` source updates, then the retraction.
    for (step, expected) in edits.iter().enumerate() {
        let (payload, metric) = if step < APPEND_STEPS {
            let metric = if step == 0 {
                "update_first_ms"
            } else {
                "update_extend_ms"
            };
            (("source", Json::str(&plan.appends[step])), metric)
        } else {
            (
                ("facts", Json::str(&plan.retract_facts)),
                "update_retract_ms",
            )
        };
        let mut fields = vec![("base", Json::str(&digest)), payload];
        fields.extend(config_fields(d.label));
        let updated = d.call("update", fields).and_then(|r| {
            samples.push(metric, r.latency_ms);
            let got = digest_field(&r, "fact_digest")?;
            if got != expected.fact_digest {
                return Err(format!(
                    "{metric}: fact digest {got:016x} differs from the oracle"
                ));
            }
            r.str("program")
                .map(str::to_owned)
                .ok_or_else(|| "update reply lacks `program`".to_owned())
        });
        match updated {
            Ok(next) => {
                tally.record(Ok(()));
                digest = next;
            }
            Err(e) => {
                tally.record(Err(format!("session update {step}: {e}")));
                return None;
            }
        }
        let reads = &plan.reads[step + 1];
        session_reads(d, entry, &expected.reads, &digest, reads, samples, tally);
    }
    Some(d.total_ms)
}

// ------------------------------------------------------------ cold query

/// The cold-query program and the exhaustive answers computed at set-up.
pub struct ColdSetup {
    pub base: String,
    /// Answer hash of each oracle root from an exhaustive solve.
    pub exhaustive: Vec<u32>,
}

pub fn cold_setup(entry: &ColdEntry, scale: usize) -> ColdSetup {
    let base = inputs::preset_source(inputs::SERVED_PRESET, scale);
    let program = inputs::compile(&base);
    let result = analyze(&program, &inputs::tstring(inputs::SERVED_SENSITIVITY));
    let index = crate::oracle::var_index(&program);
    let exhaustive = entry
        .roots
        .iter()
        .map(|r| match index.get(&(r.method.as_str(), r.var.as_str())) {
            Some(&v) => answer_hash(&crate::oracle::heap_names(&program, &result, v)),
            None => 0,
        })
        .collect();
    ColdSetup { base, exhaustive }
}

/// One cold query: load a program the server has not seen and ask for
/// one root's points-to set before any analyze. Returns the root index
/// and the nonce'd source for a later replay.
pub fn cold_query(
    d: &mut UnitClient<'_>,
    setup: &ColdSetup,
    entry: &ColdEntry,
    choices: &mut Choices,
    samples: &mut Samples,
    tally: &mut Tally,
) -> (usize, String) {
    let root = choices.below(entry.roots.len());
    let source = inputs::with_nonce(&setup.base, choices.nonce());
    let loaded = d
        .call("load_source", vec![("source", Json::str(&source))])
        .and_then(|r| {
            samples.push("load_ms", r.latency_ms);
            r.str("program")
                .map(str::to_owned)
                .ok_or_else(|| "load reply lacks `program`".to_owned())
        });
    let digest = match loaded {
        Ok(digest) => {
            tally.record(Ok(()));
            digest
        }
        Err(e) => {
            tally.record(Err(format!("cold load: {e}")));
            return (root, source);
        }
    };
    let r = &entry.roots[root];
    let mut fields = d.program_fields(&digest);
    fields.push(("method", Json::str(&r.method)));
    fields.push(("var", Json::str(&r.var)));
    let answered = d.call("query", fields).and_then(|reply| {
        samples.push("cold_query_ms", reply.latency_ms);
        let heaps: Vec<&str> = reply
            .json
            .get("heaps")
            .and_then(Json::as_arr)
            .ok_or("query reply lacks `heaps`")?
            .iter()
            .filter_map(Json::as_str)
            .collect();
        let got = answer_hash(&heaps);
        if got != r.answer || got != setup.exhaustive[root] {
            return Err(format!(
                "query {}::{} differs from the oracle / exhaustive answer",
                r.method, r.var
            ));
        }
        Ok(())
    });
    tally.record(answered.map_err(|e| format!("cold query: {e}")));
    (root, source)
}
