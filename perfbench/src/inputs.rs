//! Seeded workload inputs.
//!
//! Every program is a DaCapo-like preset from `ctxform-synth` at a fixed
//! scale, so the expected answers can be stored once in the oracle.
//! The workload seed picks everything else: the per-operation *nonce* that
//! makes each loaded program one the server has not seen, the edit script,
//! the variables each read asks about, the cold-query roots and the order
//! of the batch programs.
//!
//! The nonce is an appended class with a single field and no methods. It
//! changes the program's content digest (so the server treats the program
//! as new and redoes every step), but it is unreachable and interns after
//! every existing entity, so it changes no answer, no CI digest and no
//! fact digest: the stored oracle stays valid for every nonce.

use ctxform::AnalysisConfig;
use ctxform_hash::SplitMix64;
use ctxform_ir::Program;

/// Scale of the full-size workloads.
pub const BATCH_SCALE: usize = 60;
pub const SESSION_SCALE: usize = 60;
pub const COLD_SCALE: usize = 20;

/// Scale of the small probes each workload runs of the *other*
/// workloads' operations (and of `--quick` runs).
pub const PROBE_SCALE: usize = 8;

/// The preset every edit session and cold query loads.
pub const SERVED_PRESET: &str = "xalan";
/// The sensitivity every served request asks for (the paper's headline).
pub const SERVED_SENSITIVITY: &str = "2-object+H";

/// The `batch` programs: preset name and sensitivity label.
pub const BATCH_CASES: [(&str, &str); 4] = [
    ("xalan", "2-object+H"),
    ("bloat", "2-object+H"),
    ("chart", "2-type+H"),
    ("luindex", "1-call+H"),
];

/// Seeds of the additive edit scripts an edit session may replay. The
/// workload seed picks one per session; the oracle stores every revision
/// of each.
pub const EDIT_SEEDS: [u64; 4] = [0x5EED_0001, 0x5EED_0002, 0x5EED_0003, 0x5EED_0004];
/// Additive `append_edit` updates per session (the first is the
/// `update_first` step, the rest are `update_extend` steps).
pub const APPEND_STEPS: usize = 3;
/// Variables in a session's read pool (answers are stored per revision).
pub const READ_POOL: usize = 512;
/// Variables per `points_to_batch` read at the full session scale.
const READ_BATCH: usize = 256;
/// `points_to_batch` reads after each analyze/update step.
pub const READS_PER_STEP: usize = 4;

/// Transformer-string configuration for `label`, single-threaded.
pub fn tstring(label: &str) -> AnalysisConfig {
    AnalysisConfig::transformer_strings(label.parse().expect("valid sensitivity label"))
        .with_threads(1)
}

/// Context-string configuration for `label` (the oracle's reference).
pub fn cstring(label: &str) -> AnalysisConfig {
    AnalysisConfig::context_strings(label.parse().expect("valid sensitivity label")).with_threads(1)
}

/// MiniJava source of `preset` at scale `scale`.
pub fn preset_source(preset: &str, scale: usize) -> String {
    let cfg = ctxform_synth::preset(preset).expect("known preset");
    ctxform_synth::generate(&cfg.scale_driver(scale))
}

/// `source` plus the unreachable nonce class that makes it a new program.
pub fn with_nonce(source: &str, nonce: u64) -> String {
    format!("{source}class Fresh{nonce:016x} {{\n    Object f;\n}}\n")
}

/// Compiles generated MiniJava (which always compiles).
pub fn compile(source: &str) -> Program {
    ctxform_minijava::compile(source)
        .expect("generated source compiles")
        .program
}

/// Full source of every additive revision of edit script `edit`, starting
/// from `base` (excluded).
pub fn append_revisions(base: &str, edit: usize) -> Vec<String> {
    let mut revisions = Vec::with_capacity(APPEND_STEPS);
    let mut current = base.to_owned();
    for step in 0..APPEND_STEPS {
        current = ctxform_synth::append_edit(&current, EDIT_SEEDS[edit], step);
        revisions.push(current.clone());
    }
    revisions
}

/// The closing single-tuple retraction of a session: `last` with one
/// input tuple removed (the removal-0% script removes exactly one).
pub fn retract_revision(last: &Program) -> Program {
    ctxform_synth::retract_edit_script(last, 0, 1, 0)
        .pop()
        .expect("one step")
}

/// Variables per `points_to_batch` read of a session at `scale`: smaller
/// programs get proportionally larger reads, so a read costs about the same
/// at every scale (a read shorter than a few ms has a tail set by machine
/// noise rather than by the lookup).
pub fn read_batch(scale: usize) -> usize {
    READ_BATCH * (SESSION_SCALE / scale.max(1)).max(1)
}

/// `(method, var)` names of the read pool: `READ_POOL` variables spread
/// evenly over the program's variable table.
pub fn read_pool(program: &Program) -> Vec<(String, String)> {
    let n = program.var_count();
    (0..READ_POOL.min(n))
        .map(|k| {
            let i = k * n / READ_POOL.min(n);
            (
                program.method_names[program.var_method[i].index()].clone(),
                program.var_names[i].clone(),
            )
        })
        .collect()
}

/// Cold-query roots: the `got` result of every `ContainerTask` unit, the
/// container-get pattern whose demand slice covers most of the program
/// (the expensive case, and the one the comparator solve answers
/// cheaply). Sorted by name.
pub fn cold_roots(program: &Program) -> Vec<(String, String)> {
    let mut roots: Vec<(String, String)> = (0..program.var_count())
        .filter(|&i| program.var_names[i] == "got")
        .map(|i| {
            (
                program.method_names[program.var_method[i].index()].clone(),
                program.var_names[i].clone(),
            )
        })
        .filter(|(m, _)| m.starts_with("ContainerTask."))
        .collect();
    roots.sort();
    roots
}

/// The deterministic stream of choices a run makes from its seed.
pub struct Choices(SplitMix64);

impl Choices {
    pub fn new(seed: u64, salt: u64) -> Choices {
        Choices(SplitMix64::new(
            seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// A fresh nonce (distinct with overwhelming probability).
    pub fn nonce(&mut self) -> u64 {
        self.0.next_u64()
    }

    pub fn below(&mut self, n: usize) -> usize {
        self.0.below(n)
    }

    /// `k` distinct indices from `0..n` (a partial Fisher-Yates shuffle).
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + self.0.below(n - i);
            all.swap(i, j);
        }
        all.truncate(k);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonce_class_changes_the_digest_but_not_the_answers() {
        let base = preset_source(SERVED_PRESET, 1);
        let plain = compile(&base);
        let fresh = compile(&with_nonce(&base, 7));
        assert_ne!(
            ctxform_server::db::program_digest(&plain),
            ctxform_server::db::program_digest(&fresh)
        );
        let config = tstring(SERVED_SENSITIVITY);
        let a = ctxform::analyze(&plain, &config);
        let b = ctxform::analyze(&fresh, &config);
        assert_eq!(
            ctxform_server::db::ci_digest(&a),
            ctxform_server::db::ci_digest(&b)
        );
        assert_eq!(
            ctxform::AnalysisDb::solve(plain, &config).fact_digest(),
            ctxform::AnalysisDb::solve(fresh, &config).fact_digest()
        );
    }

    #[test]
    fn samples_are_distinct_and_seeded() {
        let a = Choices::new(3, 1).sample(100, 20);
        let mut sorted = a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert_eq!(a, Choices::new(3, 1).sample(100, 20));
    }
}
