//! Profiling must be result-neutral: enabling per-rule/per-round timing
//! may not change a single derived fact, at any thread count — the
//! clocks only ever feed the timing fields of `SolverStats`.

use ctxform::{analyze, AnalysisConfig};
use ctxform_algebra::Sensitivity;
use ctxform_ir::Program;
use ctxform_minijava::compile;
use ctxform_synth::{generate, preset};

fn corpus_program(name: &str) -> Program {
    let cfg = preset(name).expect("preset exists").scale_driver(4);
    let src = generate(&cfg);
    compile(&src).expect("generated programs are valid").program
}

/// Corpus cell × both abstractions × threads ∈ {1, 4}: runs with
/// profiling enabled derive bit-identical facts (projections, fact
/// counts, rule counters) to plain runs, and the profiled runs actually
/// populate the rule-time and phase accounting.
#[test]
fn profiling_is_result_neutral_across_thread_counts() {
    let program = corpus_program("luindex");
    let sensitivity: Sensitivity = "2-object+H".parse().unwrap();
    for base in [
        AnalysisConfig::context_strings(sensitivity),
        AnalysisConfig::transformer_strings(sensitivity),
    ] {
        for threads in [1usize, 4] {
            let config = base.with_threads(threads);
            let plain = analyze(&program, &config);
            let profiled = analyze(&program, &config.with_profiling());

            let what = format!("{config}/threads={threads}");
            assert_eq!(plain.ci, profiled.ci, "{what}: projections differ");
            assert_eq!(
                plain.stats.rule_derived, profiled.stats.rule_derived,
                "{what}: rule counters differ under profiling"
            );
            assert_eq!(
                (plain.stats.pts, plain.stats.hpts, plain.stats.call),
                (profiled.stats.pts, profiled.stats.hpts, profiled.stats.call),
                "{what}: fact counts differ under profiling"
            );
            assert_eq!(
                plain.stats.memory, profiled.stats.memory,
                "{what}: footprint describes the database, not the run"
            );

            assert!(!plain.stats.profiled, "{what}: plain run is unprofiled");
            assert_eq!(
                plain.stats.rule_time.total_ns(),
                0,
                "{what}: unprofiled runs read no clocks"
            );
            assert!(profiled.stats.profiled, "{what}: profiled flag set");
            assert!(
                profiled.stats.rule_time.total_ns() > 0,
                "{what}: rule time collected"
            );
            assert!(
                profiled.stats.rule_time.count("New") > 0,
                "{what}: New blocks timed"
            );
            assert!(
                profiled.stats.phase_profile.eval_ns > 0,
                "{what}: eval phase timed"
            );
            // The histogram totals must agree with the block counts.
            for (rule, _, blocks) in profiled.stats.rule_time.nonzero() {
                let hist_total: u64 = profiled.stats.rule_time.buckets(rule).iter().sum();
                assert_eq!(hist_total, blocks, "{what}/{rule}: histogram sums to count");
            }
            // Every thread count runs the round engine.
            assert!(profiled.stats.par_rounds > 0, "{what}: at least one round");
            assert_eq!(
                profiled.stats.round_profiles.len(),
                profiled.stats.par_rounds.min(ctxform::MAX_ROUND_PROFILES),
                "{what}: one profile per round (capped)"
            );
            assert!(
                profiled.stats.phase_profile.merge_ns > 0,
                "{what}: merge phase timed"
            );
            // Memory footprint is populated either way and covers the
            // big relations.
            assert!(
                plain.stats.memory.rel_pts > 0 && plain.stats.memory.ix_pts_by_var > 0,
                "{what}: byte accounting populated"
            );
            assert_eq!(
                plain.stats.memory.total(),
                plain.stats.memory.sections().map(|(_, _, b)| b).sum(),
                "{what}: sections sum to total"
            );
        }
    }
}
