//! The answer oracle: expected results stored with the benchmark.
//!
//! `perfbench make-oracle` establishes every answer once, against
//! references that are not the code paths being measured:
//!
//! - CI results come from *context-string* solves. For call-site and
//!   object sensitivity, Theorem 6.2 (and the paper's observation of
//!   exact equality) makes them equal to the transformer-string CI
//!   projection the benchmark measures; generation asserts the equality.
//!   For `2-type+H` the transformer result may only be coarser, so
//!   generation asserts `cstring ⊆ tstring` and stores the transformer
//!   digest.
//! - Every base program's CI projection is also checked to lie inside the
//!   insensitive model computed by the generic Datalog engine
//!   (`ctxform::datalog_baseline`).
//! - Edit-session fact digests come from from-scratch solves of each
//!   revision, while the server reaches them through incremental updates.
//!
//! At run time any mismatch counts as a failed operation.

use std::collections::HashMap;
use std::sync::Arc;

use ctxform::{analyze, datalog_baseline, AnalysisDb, AnalysisResult};
use ctxform_ir::{Program, Var};
use ctxform_server::db::ci_digest;
use ctxform_server::Json;

use crate::inputs::{self, APPEND_STEPS, EDIT_SEEDS};
use crate::util::{answer_hash, hex};

/// The oracle checked in next to the benchmark.
pub const EMBEDDED: &str = include_str!("../oracle.json");

const SCHEMA: &str = "ctxform-perfbench-oracle/1";

/// Expected result of one `batch` program.
pub struct BatchEntry {
    pub program: String,
    pub sensitivity: String,
    pub scale: usize,
    pub ci_digest: u64,
    pub cs_facts: usize,
}

/// Expected results of one revision of an edit session.
pub struct Revision {
    pub fact_digest: u64,
    /// Answer hash of every read-pool variable, in pool order.
    pub reads: Vec<u32>,
}

/// Expected results of the edit sessions at one scale.
pub struct SessionEntry {
    pub scale: usize,
    pub base_ci_digest: u64,
    pub pool: Vec<(String, String)>,
    pub base: Revision,
    /// `edits[e][k]`: revision `k + 1` of edit script `e`; the last entry
    /// of each is the single-tuple retraction.
    pub edits: Vec<Vec<Revision>>,
}

/// Expected answer of one cold-query root.
pub struct ColdRoot {
    pub method: String,
    pub var: String,
    pub answer: u32,
    pub heaps: usize,
}

/// Expected cold-query answers at one scale.
pub struct ColdEntry {
    pub scale: usize,
    pub roots: Vec<ColdRoot>,
}

pub struct Oracle {
    pub batch: Vec<BatchEntry>,
    pub sessions: Vec<SessionEntry>,
    pub cold: Vec<ColdEntry>,
}

impl Oracle {
    pub fn batch(&self, program: &str, scale: usize) -> Option<&BatchEntry> {
        self.batch
            .iter()
            .find(|b| b.program == program && b.scale == scale)
    }

    pub fn session(&self, scale: usize) -> Option<&SessionEntry> {
        self.sessions.iter().find(|s| s.scale == scale)
    }

    pub fn cold(&self, scale: usize) -> Option<&ColdEntry> {
        self.cold.iter().find(|c| c.scale == scale)
    }

    /// Parses an oracle file.
    pub fn parse(text: &str) -> Result<Oracle, String> {
        let json = Json::parse(text).map_err(|e| format!("oracle is not JSON: {e}"))?;
        if json.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("oracle schema is not {SCHEMA}"));
        }
        let arr = |key: &str| -> Result<&[Json], String> {
            json.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("oracle lacks `{key}`"))
        };
        let batch = arr("batch")?
            .iter()
            .map(|b| {
                Ok(BatchEntry {
                    program: field_str(b, "program")?,
                    sensitivity: field_str(b, "sensitivity")?,
                    scale: field_u64(b, "scale")? as usize,
                    ci_digest: field_hex(b, "ci_digest")?,
                    cs_facts: field_u64(b, "cs_facts")? as usize,
                })
            })
            .collect::<Result<_, String>>()?;
        let sessions = arr("sessions")?
            .iter()
            .map(|s| {
                let pool = s
                    .get("pool")
                    .and_then(Json::as_arr)
                    .ok_or("session lacks `pool`")?
                    .iter()
                    .map(|p| Ok((field_str(p, "method")?, field_str(p, "var")?)))
                    .collect::<Result<Vec<_>, String>>()?;
                let edits = s
                    .get("edits")
                    .and_then(Json::as_arr)
                    .ok_or("session lacks `edits`")?
                    .iter()
                    .map(|e| {
                        e.as_arr()
                            .ok_or("edit is not an array")?
                            .iter()
                            .map(parse_revision)
                            .collect::<Result<Vec<_>, String>>()
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(SessionEntry {
                    scale: field_u64(s, "scale")? as usize,
                    base_ci_digest: field_hex(s, "base_ci_digest")?,
                    pool,
                    base: parse_revision(s.get("base").ok_or("session lacks `base`")?)?,
                    edits,
                })
            })
            .collect::<Result<_, String>>()?;
        let cold = arr("cold")?
            .iter()
            .map(|c| {
                let roots = c
                    .get("roots")
                    .and_then(Json::as_arr)
                    .ok_or("cold entry lacks `roots`")?
                    .iter()
                    .map(|r| {
                        Ok(ColdRoot {
                            method: field_str(r, "method")?,
                            var: field_str(r, "var")?,
                            answer: field_hex(r, "answer")? as u32,
                            heaps: field_u64(r, "heaps")? as usize,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(ColdEntry {
                    scale: field_u64(c, "scale")? as usize,
                    roots,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Oracle {
            batch,
            sessions,
            cold,
        })
    }

    pub fn to_json(&self) -> Json {
        let batch = self
            .batch
            .iter()
            .map(|b| {
                Json::obj([
                    ("program", Json::str(&b.program)),
                    ("sensitivity", Json::str(&b.sensitivity)),
                    ("scale", Json::int(b.scale)),
                    ("ci_digest", Json::str(hex(b.ci_digest))),
                    ("cs_facts", Json::int(b.cs_facts)),
                ])
            })
            .collect();
        let sessions = self
            .sessions
            .iter()
            .map(|s| {
                Json::obj([
                    ("scale", Json::int(s.scale)),
                    ("base_ci_digest", Json::str(hex(s.base_ci_digest))),
                    (
                        "pool",
                        Json::Arr(
                            s.pool
                                .iter()
                                .map(|(m, v)| {
                                    Json::obj([("method", Json::str(m)), ("var", Json::str(v))])
                                })
                                .collect(),
                        ),
                    ),
                    ("base", revision_json(&s.base)),
                    (
                        "edits",
                        Json::Arr(
                            s.edits
                                .iter()
                                .map(|e| Json::Arr(e.iter().map(revision_json).collect()))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let cold = self
            .cold
            .iter()
            .map(|c| {
                Json::obj([
                    ("scale", Json::int(c.scale)),
                    (
                        "roots",
                        Json::Arr(
                            c.roots
                                .iter()
                                .map(|r| {
                                    Json::obj([
                                        ("method", Json::str(&r.method)),
                                        ("var", Json::str(&r.var)),
                                        ("answer", Json::str(format!("{:08x}", r.answer))),
                                        ("heaps", Json::int(r.heaps)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("batch", Json::Arr(batch)),
            ("sessions", Json::Arr(sessions)),
            ("cold", Json::Arr(cold)),
        ])
    }
}

fn field_str(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("oracle entry lacks string `{key}`"))
}

fn field_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("oracle entry lacks number `{key}`"))
}

fn field_hex(j: &Json, key: &str) -> Result<u64, String> {
    let s = field_str(j, key)?;
    u64::from_str_radix(&s, 16).map_err(|_| format!("oracle `{key}` is not hex: {s}"))
}

fn parse_revision(j: &Json) -> Result<Revision, String> {
    let text = field_str(j, "reads")?;
    if text.len() % 8 != 0 {
        return Err("oracle `reads` is not a run of 8-digit hashes".into());
    }
    let reads = (0..text.len() / 8)
        .map(|i| u32::from_str_radix(&text[i * 8..i * 8 + 8], 16))
        .collect::<Result<Vec<u32>, _>>()
        .map_err(|_| "oracle `reads` is not hex".to_owned())?;
    Ok(Revision {
        fact_digest: field_hex(j, "fact_digest")?,
        reads,
    })
}

fn revision_json(r: &Revision) -> Json {
    let reads: String = r.reads.iter().map(|h| format!("{h:08x}")).collect();
    Json::obj([
        ("fact_digest", Json::str(hex(r.fact_digest))),
        ("reads", Json::str(reads)),
    ])
}

/// `(method, var)` → variable, resolving duplicates the way the server's
/// batch index does (the last variable with a name wins).
pub fn var_index(program: &Program) -> HashMap<(&str, &str), Var> {
    let mut index = HashMap::with_capacity(program.var_count());
    for i in 0..program.var_count() {
        let method = program.method_names[program.var_method[i].index()].as_str();
        index.insert((method, program.var_names[i].as_str()), Var::from_index(i));
    }
    index
}

/// Heap names `var` points to in `result`.
pub fn heap_names(program: &Program, result: &AnalysisResult, var: Var) -> Vec<String> {
    result
        .ci
        .points_to(var)
        .iter()
        .map(|h| program.heap_names[h.index()].clone())
        .collect()
}

fn assert_ci_equal(what: &str, a: &AnalysisResult, b: &AnalysisResult) {
    assert_eq!(a.ci.pts, b.ci.pts, "{what}: pts differ");
    assert_eq!(a.ci.hpts, b.ci.hpts, "{what}: hpts differ");
    assert_eq!(a.ci.call, b.ci.call, "{what}: call differ");
    assert_eq!(a.ci.spts, b.ci.spts, "{what}: spts differ");
    assert_eq!(a.ci.reach, b.ci.reach, "{what}: reach differ");
}

fn assert_within_datalog(what: &str, program: &Program, r: &AnalysisResult) {
    let ins = datalog_baseline(program);
    assert!(r.ci.pts.is_subset(&ins.pts), "{what}: pts ⊄ datalog");
    assert!(r.ci.hpts.is_subset(&ins.hpts), "{what}: hpts ⊄ datalog");
    assert!(r.ci.call.is_subset(&ins.call), "{what}: call ⊄ datalog");
    assert!(r.ci.reach.is_subset(&ins.reach), "{what}: reach ⊄ datalog");
}

/// The reference CI result of `program`: a context-string solve, asserted
/// equal to the transformer-string solve the benchmark measures (or, for
/// type sensitivity, asserted to refine it).
fn reference(what: &str, program: &Program, label: &str) -> Arc<AnalysisResult> {
    let c = analyze(program, &inputs::cstring(label));
    let t = analyze(program, &inputs::tstring(label));
    if label.contains("type") {
        assert!(c.ci.pts.is_subset(&t.ci.pts), "{what}: cstring ⊄ tstring");
        Arc::new(t)
    } else {
        assert_ci_equal(what, &c, &t);
        Arc::new(c)
    }
}

fn revision(what: &str, program: &Program, pool: &[(String, String)]) -> Revision {
    let reference = reference(what, program, inputs::SERVED_SENSITIVITY);
    let index = var_index(program);
    let reads = pool
        .iter()
        .map(|(m, v)| {
            let var = index[&(m.as_str(), v.as_str())];
            answer_hash(&heap_names(program, &reference, var))
        })
        .collect();
    let db = AnalysisDb::solve(
        program.clone(),
        &inputs::tstring(inputs::SERVED_SENSITIVITY),
    );
    Revision {
        fact_digest: db.fact_digest(),
        reads,
    }
}

fn session_entry(scale: usize) -> SessionEntry {
    let base_src = inputs::preset_source(inputs::SERVED_PRESET, scale);
    let base = inputs::compile(&base_src);
    let pool = inputs::read_pool(&base);
    let what = format!("session base scale {scale}");
    let reference = reference(&what, &base, inputs::SERVED_SENSITIVITY);
    assert_within_datalog(&what, &base, &reference);
    let base_ci_digest = ci_digest(&reference);
    let base_rev = revision(&what, &base, &pool);
    let edits = (0..EDIT_SEEDS.len())
        .map(|e| {
            let sources = inputs::append_revisions(&base_src, e);
            let mut revs: Vec<Revision> = sources
                .iter()
                .enumerate()
                .map(|(k, src)| {
                    let what = format!("session scale {scale} edit {e} step {}", k + 1);
                    revision(&what, &inputs::compile(src), &pool)
                })
                .collect();
            let last = inputs::compile(sources.last().expect("appends"));
            let retracted = inputs::retract_revision(&last);
            let what = format!("session scale {scale} edit {e} retract");
            revs.push(revision(&what, &retracted, &pool));
            assert_eq!(revs.len(), APPEND_STEPS + 1);
            revs
        })
        .collect();
    SessionEntry {
        scale,
        base_ci_digest,
        pool,
        base: base_rev,
        edits,
    }
}

fn cold_entry(scale: usize) -> ColdEntry {
    let program = inputs::compile(&inputs::preset_source(inputs::SERVED_PRESET, scale));
    let what = format!("cold scale {scale}");
    let reference = reference(&what, &program, inputs::SERVED_SENSITIVITY);
    assert_within_datalog(&what, &program, &reference);
    let index = var_index(&program);
    let roots = inputs::cold_roots(&program)
        .into_iter()
        .map(|(method, var)| {
            let v = index[&(method.as_str(), var.as_str())];
            let heaps = heap_names(&program, &reference, v);
            assert!(
                !heaps.is_empty(),
                "{what}: root {method}::{var} points nowhere"
            );
            ColdRoot {
                answer: answer_hash(&heaps),
                heaps: heaps.len(),
                method,
                var,
            }
        })
        .collect::<Vec<_>>();
    assert!(!roots.is_empty(), "{what}: no cold-query roots");
    ColdEntry { scale, roots }
}

fn batch_entries(scale: usize) -> Vec<BatchEntry> {
    inputs::BATCH_CASES
        .iter()
        .map(|&(name, label)| {
            let program = inputs::compile(&inputs::preset_source(name, scale));
            let what = format!("batch {name} {label} scale {scale}");
            let reference = reference(&what, &program, label);
            assert_within_datalog(&what, &program, &reference);
            let measured = analyze(&program, &inputs::tstring(label));
            BatchEntry {
                program: name.to_owned(),
                sensitivity: label.to_owned(),
                scale,
                ci_digest: ci_digest(&reference),
                cs_facts: measured.stats.total(),
            }
        })
        .collect()
}

/// Establishes every stored answer from scratch (takes minutes).
pub fn make() -> Oracle {
    let mut oracle = Oracle {
        batch: Vec::new(),
        sessions: Vec::new(),
        cold: Vec::new(),
    };
    for scale in [inputs::PROBE_SCALE, inputs::BATCH_SCALE] {
        eprintln!("oracle: batch scale {scale}");
        oracle.batch.extend(batch_entries(scale));
    }
    for scale in [inputs::PROBE_SCALE, inputs::SESSION_SCALE] {
        eprintln!("oracle: sessions scale {scale}");
        oracle.sessions.push(session_entry(scale));
    }
    for scale in [inputs::PROBE_SCALE, inputs::COLD_SCALE] {
        eprintln!("oracle: cold queries scale {scale}");
        oracle.cold.push(cold_entry(scale));
    }
    oracle
}
