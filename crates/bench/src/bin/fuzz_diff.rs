//! Differential fuzzer for the solver.
//!
//! ```text
//! cargo run --release -p ctxform-bench --bin fuzz_diff -- \
//!     [--iters N] [--seed S] [--repro-dir PATH]
//! ```
//!
//! Each iteration draws a seeded `ctxform_synth` program and sweeps the
//! shared differential matrix ([`ctxform_testutil::incremental_configs`]:
//! {cstring, tstring} × {1-call, 1-object}) × {1, 4} threads, holding
//! every cell to single-threaded from-scratch solves:
//!
//! 1. **Digest parity** — `AnalysisDb::fact_digest` (rendered, sorted,
//!    context-sensitive facts) must be bit-identical to the 1-thread
//!    solve's.
//! 2. **CI equality** — the context-insensitive projections must match
//!    set-for-set.
//! 3. **Extend vs scratch** — one seeded additive edit is applied
//!    through `AnalysisDb::extend` and the digest is held to a
//!    from-scratch solve of the edited revision.
//! 4. **Retract vs scratch** — one seeded single-tuple retraction
//!    (`ctxform_synth::retract_edit_script`) of the edited revision is
//!    applied through the DRed path of `AnalysisDb::extend` and the
//!    digest is held to a from-scratch solve of the retracted revision.
//!
//! Once per seed and thread count, the insensitive solve's CI facts are
//! also held to [`ctxform::datalog_baseline`], the same rules run on the
//! generic Datalog engine — an oracle outside the solver's rule drivers.
//!
//! On the first violated property the harness writes a reproducer to
//! `ctxform-fuzz-repro/2` — a JSON object with the seed, iteration,
//! config, thread count, both digests, and the generator inputs needed
//! to replay (`fuzz_diff --iters 1 --seed <seed>`) — and exits nonzero.
//! CI uploads that file as an artifact on failure.

use ctxform::{analyze, datalog_baseline, AnalysisConfig, AnalysisDb, AnalysisResult};
use ctxform_minijava::compile;
use ctxform_obs::logger;
use ctxform_server::db::ci_digest;
use ctxform_server::json::{hex16, Json};
use ctxform_synth::{edit_script, random_program, retract_edit_script};
use ctxform_testutil::{incremental_configs, PARITY_THREADS};

/// One differential violation, with everything needed to replay it.
struct Violation {
    seed: u64,
    iter: usize,
    config: AnalysisConfig,
    threads: usize,
    property: &'static str,
    expected: u64,
    actual: u64,
}

impl Violation {
    fn to_json(&self, iters: usize) -> Json {
        Json::obj([
            ("schema", Json::str("ctxform-fuzz-repro/2")),
            ("seed", Json::uint(self.seed)),
            ("iter", Json::int(self.iter)),
            ("iters", Json::int(iters)),
            ("config", Json::Str(self.config.to_string())),
            ("threads", Json::int(self.threads)),
            ("property", Json::str(self.property)),
            ("expected_digest", Json::Str(hex16(self.expected))),
            ("actual_digest", Json::Str(hex16(self.actual))),
            (
                "replay",
                Json::Str(format!(
                    "cargo run --release -p ctxform-bench --bin fuzz_diff -- \
                     --iters 1 --seed {}",
                    self.seed
                )),
            ),
        ])
    }
}

/// Runs every differential property for one seed; returns the first
/// violation, if any.
fn check_seed(seed: u64, iter: usize) -> Option<Violation> {
    let source = random_program(seed, 1);
    // Revision 0 is the base itself, revision 1 one additive edit of it,
    // revision 2 one single-tuple retraction of revision 1.
    let mut programs: Vec<_> = edit_script(&source, seed, 1)
        .iter()
        .map(|src| {
            compile(src)
                .unwrap_or_else(|e| panic!("seed {seed}: revision fails to compile: {e}"))
                .program
        })
        .collect();
    let retracted = retract_edit_script(&programs[1], seed, 1, 0).pop();
    programs.push(retracted.expect("one retraction step"));

    let violation = |config, threads, property, expected, actual| Violation {
        seed,
        iter,
        config,
        threads,
        property,
        expected,
        actual,
    };

    // The generic Datalog engine is the oracle for the insensitive solve.
    let insensitive = AnalysisConfig::insensitive();
    let engine_ci = datalog_baseline(&programs[0]);
    for &threads in &PARITY_THREADS {
        let solved = analyze(&programs[0], &insensitive.with_threads(threads));
        if solved.ci != engine_ci {
            let engine = AnalysisResult {
                ci: engine_ci,
                ..solved.clone()
            };
            return Some(violation(
                insensitive,
                threads,
                "insensitive ci equals datalog_baseline",
                ci_digest(&engine),
                ci_digest(&solved),
            ));
        }
    }

    for base in incremental_configs() {
        // Single-threaded from-scratch solves are the oracles for every
        // cell; digests are independent of thread count.
        let scratch: Vec<AnalysisDb> = programs
            .iter()
            .map(|p| AnalysisDb::solve(p.clone(), &base.with_threads(1)))
            .collect();
        for &threads in &PARITY_THREADS {
            let cfg = base.with_threads(threads);
            let mut db = AnalysisDb::solve(programs[0].clone(), &cfg);
            if db.fact_digest() != scratch[0].fact_digest() {
                return Some(violation(
                    base,
                    threads,
                    "fact_digest parity",
                    scratch[0].fact_digest(),
                    db.fact_digest(),
                ));
            }
            if db.result().ci != scratch[0].result().ci {
                return Some(violation(
                    base,
                    threads,
                    "ci pts-set equality",
                    ci_digest(scratch[0].result()),
                    ci_digest(db.result()),
                ));
            }
            for (rev, property) in [(1, "extend vs scratch"), (2, "retract vs scratch")] {
                let outcome = db.extend(programs[rev].clone());
                if !outcome.is_incremental() {
                    panic!(
                        "seed {seed} {base} threads={threads}: {property} edit did not \
                         update incrementally: {outcome:?}"
                    );
                }
                if db.fact_digest() != scratch[rev].fact_digest() {
                    return Some(violation(
                        base,
                        threads,
                        property,
                        scratch[rev].fact_digest(),
                        db.fact_digest(),
                    ));
                }
            }
        }
    }
    None
}

fn main() {
    let mut iters = 25usize;
    let mut seed0 = 0u64;
    let mut repro_dir = "ctxform-fuzz-repro".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" => {
                iters = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--iters needs a positive integer");
            }
            "--seed" => {
                seed0 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an unsigned integer");
            }
            "--repro-dir" => repro_dir = args.next().expect("--repro-dir needs a path"),
            "--help" | "-h" => {
                eprintln!("usage: fuzz_diff [--iters N] [--seed S] [--repro-dir PATH]");
                return;
            }
            other => panic!("unknown argument `{other}`"),
        }
    }

    for iter in 0..iters {
        let seed = seed0.wrapping_add(iter as u64);
        if let Some(v) = check_seed(seed, iter) {
            let path = format!("{repro_dir}/1");
            std::fs::create_dir_all(&repro_dir)
                .unwrap_or_else(|e| panic!("cannot create {repro_dir}: {e}"));
            std::fs::write(&path, v.to_json(iters).to_pretty())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            logger::error(
                "fuzz_diff",
                format!(
                    "seed {seed} ({}, threads={}) violated {}: \
                     expected {} got {}; reproducer written to {path}",
                    v.config,
                    v.threads,
                    v.property,
                    hex16(v.expected),
                    hex16(v.actual)
                ),
            );
            std::process::exit(1);
        }
        if (iter + 1) % 5 == 0 || iter + 1 == iters {
            logger::info("fuzz_diff", format!("{}/{iters} seeds clean", iter + 1));
        }
    }
    logger::info(
        "fuzz_diff",
        format!(
            "all {iters} seeds clean across {} configs x {:?} threads",
            incremental_configs().len(),
            PARITY_THREADS,
        ),
    );
}
