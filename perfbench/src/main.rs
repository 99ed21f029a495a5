//! `perfbench`: the layered end-to-end benchmark of ctxform.
//!
//! ```text
//! perfbench --workload batch|edit_session|cold_query --seed N --seconds S --trace 0|1
//!           [--oracle PATH] [--quick]
//! perfbench make-oracle [PATH]
//! ```
//!
//! An untraced run (`--trace 0`) sets up several times, measures its
//! workload for `--seconds`, checks every answer against the stored
//! oracle, and prints every end-to-end metric; the last stdout line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. A
//! traced run (`--trace 1`) measures half the time untraced and half
//! traced, attributes the traced units to layers, prints the per-layer
//! metrics and a reconciliation of layer self times against end-to-end
//! time. See `README.md` next to this crate.

mod inputs;
mod layers;
mod metrics;
mod oracle;
mod serve;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use inputs::{Choices, PROBE_SCALE, SERVED_SENSITIVITY};
use layers::LayerMap;
use oracle::Oracle;
use serve::{Conn, ServerProcess};
use util::{median, percentile, timed, Provenance};
use workloads::{BatchCase, ColdSetup, Samples, Tally, UnitClient};

/// The seed kept out of tuning: use it only to confirm a claim made on
/// other seeds.
pub const HELD_OUT_SEED: u64 = 9001;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Minimum measured units, even past `--seconds`.
const MIN_UNITS: usize = 3;
/// Probe units per run of the *other* workloads' operations.
const PROBE_PASSES: usize = 15;
const PROBE_SESSIONS: usize = 8;
const PROBE_COLD_QUERIES: usize = 8;
/// Span records the server keeps in a traced run.
const TRACE_RING: usize = 16_384;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Batch,
    EditSession,
    ColdQuery,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "batch" => Some(Workload::Batch),
            "edit_session" => Some(Workload::EditSession),
            "cold_query" => Some(Workload::ColdQuery),
            _ => None,
        }
    }

    const ALL: [Workload; 3] = [Workload::Batch, Workload::EditSession, Workload::ColdQuery];

    fn full_scale(self) -> usize {
        match self {
            Workload::Batch => inputs::BATCH_SCALE,
            Workload::EditSession => inputs::SESSION_SCALE,
            Workload::ColdQuery => inputs::COLD_SCALE,
        }
    }

    fn served(self) -> bool {
        self != Workload::Batch
    }

    fn salt(self) -> u64 {
        match self {
            Workload::Batch => 1,
            Workload::EditSession => 2,
            Workload::ColdQuery => 3,
        }
    }
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    oracle: Option<String>,
    quick: bool,
}

const USAGE: &str = "usage: perfbench --workload batch|edit_session|cold_query --seed N \
--seconds S --trace 0|1 [--oracle PATH] [--quick]\n       perfbench make-oracle [PATH]";

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut oracle = None;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => trace = value()? == "1",
            "--oracle" => oracle = Some(value()?.clone()),
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        oracle,
        quick,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve-child") => return serve::child_main(&args[1..]),
        Some("make-oracle") => {
            let path = args
                .get(1)
                .map(String::as_str)
                .unwrap_or("perfbench/oracle.json");
            let oracle = oracle::make();
            std::fs::write(path, oracle.to_json().to_pretty()).expect("write the oracle");
            eprintln!("wrote {path}");
            return;
        }
        _ => {}
    }
    let opts = match parse_opts(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let provenance = Provenance::collect(opts.seed);
    println!("{}", provenance.line());
    let outcome = if opts.trace {
        traced_run(&opts)
    } else {
        untraced_run(&opts)
    };
    match outcome {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn load_oracle(opts: &Opts) -> Result<Oracle, String> {
    match &opts.oracle {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            Oracle::parse(&text)
        }
        None => Oracle::parse(oracle::EMBEDDED),
    }
}

/// Inputs of one run, built by set-up.
struct Env {
    server: Option<ServerProcess>,
    conn: Option<Conn>,
    batch: Option<(usize, Vec<BatchCase>)>,
    session: Option<(usize, String)>,
    cold: Option<(usize, ColdSetup)>,
}

/// Builds a run's inputs: the main workload at `main_scale`, and (when
/// `probes`) the other two at the probe scale; starts the server when
/// anything is served.
fn setup(
    oracle: &Oracle,
    main: Workload,
    main_scale: usize,
    probes: bool,
    trace_ring: usize,
) -> Result<Env, String> {
    let mut env = Env {
        server: None,
        conn: None,
        batch: None,
        session: None,
        cold: None,
    };
    for w in Workload::ALL {
        if w != main && !probes {
            continue;
        }
        let scale = if w == main { main_scale } else { PROBE_SCALE };
        match w {
            Workload::Batch => env.batch = Some((scale, workloads::batch_cases(oracle, scale))),
            Workload::EditSession => {
                let base = inputs::preset_source(inputs::SERVED_PRESET, scale);
                env.session = Some((scale, base));
            }
            Workload::ColdQuery => {
                let entry = oracle
                    .cold(scale)
                    .ok_or(format!("oracle has no cold queries at scale {scale}"))?;
                env.cold = Some((scale, workloads::cold_setup(entry, scale)));
            }
        }
    }
    if env.session.is_some() || env.cold.is_some() {
        let server = ServerProcess::start(trace_ring)?;
        let mut conn = server.connect()?;
        layers::server_counters(&mut conn)?;
        env.server = Some(server);
        env.conn = Some(conn);
    }
    Ok(env)
}

/// What a run prints: human-readable lines, then the result object.
struct Report {
    lines: Vec<String>,
    tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        for message in &self.tally.messages {
            println!("failure {message}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name} {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        );
    }
}

/// Runs `count` units (or until `deadline`, at least `MIN_UNITS`) of `w`
/// against `env`; returns the unit times.
#[allow(clippy::too_many_arguments)]
fn run_units(
    w: Workload,
    env: &mut Env,
    oracle: &Oracle,
    choices: &mut Choices,
    until: Until,
    samples: &mut Samples,
    tally: &mut Tally,
    mut traced: Option<&mut Vec<LayerMap>>,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    let mut n = 0usize;
    while until.more(n) {
        n += 1;
        let mut unit = LayerMap::new();
        let layers = traced.as_ref().map(|_| &mut unit);
        match w {
            Workload::Batch => {
                let (_, cases) = env.batch.as_ref().expect("batch inputs");
                let pass_ms = workloads::batch_pass(cases, choices, tally, layers);
                samples.push("pass_ms", pass_ms);
                times.push(pass_ms);
            }
            Workload::EditSession => {
                let (scale, base) = env.session.as_ref().expect("session inputs");
                let entry = oracle
                    .session(*scale)
                    .ok_or(format!("oracle has no sessions at scale {scale}"))?;
                let plan = workloads::plan_session(base, entry, choices);
                let conn = env.conn.as_mut().expect("server connection");
                let prefix = traced.as_ref().map(|_| format!("s{n}"));
                let mut d = UnitClient::new(conn, SERVED_SENSITIVITY, prefix);
                if let Some(ms) = workloads::session(&mut d, &plan, entry, samples, tally) {
                    samples.push("session_ms", ms);
                    times.push(ms);
                }
                // A traced unit is replayed in-process right after it ran,
                // for the library layers inside the server's solve span.
                if traced.is_some() {
                    let sent = std::mem::take(&mut d.sent);
                    layers::span_layers(conn, &sent, &mut unit)?;
                    unit.extend(on_worker(|| {
                        layers::replay_session(&plan, entry, SERVED_SENSITIVITY)
                    }));
                }
            }
            Workload::ColdQuery => {
                let (scale, setup) = env.cold.as_ref().expect("cold inputs");
                let entry = oracle
                    .cold(*scale)
                    .ok_or(format!("oracle has no cold queries at scale {scale}"))?;
                let conn = env.conn.as_mut().expect("server connection");
                let prefix = traced.as_ref().map(|_| format!("c{n}"));
                let mut d = UnitClient::new(conn, SERVED_SENSITIVITY, prefix);
                let failed_before = tally.failed;
                let (root, source) =
                    workloads::cold_query(&mut d, setup, entry, choices, samples, tally);
                let unit_ms = d.total_ms;
                if tally.failed == failed_before {
                    times.push(unit_ms);
                }
                if traced.is_some() {
                    let sent = std::mem::take(&mut d.sent);
                    layers::span_layers(conn, &sent, &mut unit)?;
                    let r = &entry.roots[root];
                    match on_worker(|| {
                        layers::replay_cold(&source, &r.method, &r.var, SERVED_SENSITIVITY)
                    }) {
                        Ok(replay) => unit.extend(replay),
                        Err(e) => tally.record(Err(e)),
                    }
                }
            }
        }
        if let Some(units) = traced.as_deref_mut() {
            units.push(unit);
        }
    }
    Ok(times)
}

/// Runs a replay on a spawned thread, as the server runs requests on a
/// worker thread: the allocator serves non-main threads from separate
/// arenas, which measurably changes the cost of allocation-heavy layers.
fn on_worker<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("replay thread"))
}

/// When a unit loop stops.
#[derive(Clone, Copy)]
enum Until {
    Count(usize),
    Deadline(Instant),
}

impl Until {
    fn more(self, done: usize) -> bool {
        match self {
            Until::Count(n) => done < n,
            Until::Deadline(t) => done < MIN_UNITS || Instant::now() < t,
        }
    }
}

fn untraced_run(opts: &Opts) -> Result<Report, String> {
    let oracle = load_oracle(opts)?;
    let main = opts.workload;
    let scale = if opts.quick {
        PROBE_SCALE
    } else {
        main.full_scale()
    };
    let mut setup_s = Vec::new();
    let mut env = None;
    for _ in 0..SETUP_REPEATS {
        drop(env.take());
        let (built, ms) = timed(|| setup(&oracle, main, scale, true, 0));
        setup_s.push(ms / 1000.0);
        env = Some(built?);
    }
    let mut env = env.expect("set up");
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let mut tally = Tally::default();
    let mut samples = Samples::default();
    let mut probe = Samples::default();
    let mut choices = Choices::new(opts.seed, main.salt());
    // Probes of the other workloads' operations are spread over the run
    // (after each main unit, as many as the elapsed share of the run is
    // due), so they see the same machine conditions as the main units.
    let mut probes: Vec<(Workload, usize, usize, Choices)> = Workload::ALL
        .into_iter()
        .filter(|&w| w != main)
        .map(|w| {
            let count = match w {
                Workload::Batch => PROBE_PASSES,
                Workload::EditSession => PROBE_SESSIONS,
                Workload::ColdQuery => PROBE_COLD_QUERIES,
            };
            (w, count, 0, Choices::new(opts.seed, 10 + w.salt()))
        })
        .collect();
    let mut units = Vec::new();
    let mut attempted_units = 0;
    while attempted_units < MIN_UNITS || Instant::now() < deadline {
        let one = Until::Count(1);
        units.extend(run_units(
            main,
            &mut env,
            &oracle,
            &mut choices,
            one,
            &mut samples,
            &mut tally,
            None,
        )?);
        attempted_units += 1;
        let share = (start.elapsed().as_secs_f64() / opts.seconds).min(1.0);
        for (w, count, done, probe_choices) in probes.iter_mut() {
            let due = (*count as f64 * share).ceil() as usize;
            while *done < due {
                run_units(
                    *w,
                    &mut env,
                    &oracle,
                    probe_choices,
                    one,
                    &mut probe,
                    &mut tally,
                    None,
                )?;
                *done += 1;
            }
        }
    }
    for (w, count, done, probe_choices) in probes.iter_mut() {
        let rest = Until::Count(*count - *done);
        run_units(
            *w,
            &mut env,
            &oracle,
            probe_choices,
            rest,
            &mut probe,
            &mut tally,
            None,
        )?;
    }
    let measured_s = start.elapsed().as_secs_f64();
    let rss = match (&env.server, main.served()) {
        (Some(server), true) => util::peak_rss_mb(Some(server.pid())),
        _ => util::peak_rss_mb(None),
    }
    .unwrap_or(0.0);
    drop(env);

    // A workload's own samples where it has them, else its probes'.
    let pick = |name: &str| -> (&'static str, Vec<f64>) {
        match samples.get(name) {
            [] => ("probe", probe.get(name).to_vec()),
            own => ("main", own.to_vec()),
        }
    };
    let mut lines = vec![format!(
        "run workload={main:?} scale={scale} probe_scale={PROBE_SCALE} units={} measured_s={measured_s:.3} attempted={} failed={}",
        units.len(),
        tally.attempted,
        tally.failed
    )];
    let ok_rate = (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64;
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert("setup_s", median(&setup_s));
    values.insert("peak_rss_mb", rss);
    values.insert("ok_rate", ok_rate);
    let latencies = [
        ("pass_ms", "pass_ms"),
        ("load_ms", "load_ms"),
        ("analyze_ms", "analyze_ms"),
        ("update_first_ms", "update_first_ms"),
        ("update_extend_ms", "update_extend_ms"),
        ("update_retract_ms", "update_retract_ms"),
        ("query_ms", "query_p50_ms"),
        ("session_ms", "session_ms"),
        ("cold_query_ms", "cold_query_ms"),
    ];
    for (sample, metric) in latencies {
        let (source, values_ms) = pick(sample);
        lines.push(format!(
            "samples {sample} source={source} n={} median={:.3} p90={:.3}",
            values_ms.len(),
            median(&values_ms),
            percentile(&values_ms, 0.9)
        ));
        values.insert(metric, median(&values_ms));
        if sample == "query_ms" {
            values.insert("query_p90_ms", percentile(&values_ms, 0.9));
        }
    }
    let metrics = metrics::END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_owned(), values[name], unit))
        .collect();
    Ok(Report {
        lines,
        tally,
        metrics,
    })
}

/// Self-time layers whose per-unit sums should add up to a unit's
/// end-to-end time, per workload.
fn self_layers(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::Batch => &[
            "minijava.compile_ms",
            "solver.solve_ms",
            "result.ci_digest_ms",
        ],
        Workload::EditSession => &[
            "server.queue_wait_ms",
            "server.serialize_ms",
            "wire_client_ms",
            "minijava.compile_ms",
            "ir.text_parse_ms",
            "ir.diff_ms",
            "server.program_digest_ms",
            "solver.solve_ms",
            "result.ci_digest_ms",
            "result.points_to_ms",
            "db.clone_ms",
            "db.extend_ms",
            "db.retract_ms",
            "db.fact_digest_ms",
        ],
        Workload::ColdQuery => &[
            "server.queue_wait_ms",
            "server.serialize_ms",
            "wire_client_ms",
            "minijava.compile_ms",
            "server.program_digest_ms",
            "demand.slice_ms",
            "demand.gated_solve_ms",
        ],
    }
}

fn traced_run(opts: &Opts) -> Result<Report, String> {
    let oracle = load_oracle(opts)?;
    let main = opts.workload;
    let scale = if opts.quick {
        PROBE_SCALE
    } else {
        main.full_scale()
    };
    let ring = if main.served() { TRACE_RING } else { 0 };
    let mut env = setup(&oracle, main, scale, false, ring)?;
    let start = Instant::now();
    let half = start + Duration::from_secs_f64(opts.seconds / 2.0);
    let end = start + Duration::from_secs_f64(opts.seconds);
    let mut tally = Tally::default();
    let mut samples = Samples::default();
    let mut choices = Choices::new(opts.seed, main.salt());
    let untraced = run_units(
        main,
        &mut env,
        &oracle,
        &mut choices,
        Until::Deadline(half),
        &mut samples,
        &mut tally,
        None,
    )?;
    let before = match env.conn.as_mut() {
        Some(conn) => Some(layers::server_counters(conn)?),
        None => None,
    };
    let mut units: Vec<LayerMap> = Vec::new();
    let traced = run_units(
        main,
        &mut env,
        &oracle,
        &mut choices,
        Until::Deadline(end),
        &mut samples,
        &mut tally,
        Some(&mut units),
    )?;
    let counters = match (env.conn.as_mut(), before) {
        (Some(conn), Some(before)) => {
            let after = layers::server_counters(conn)?;
            let n = units.len().max(1) as f64;
            layers::COUNTER_NAMES
                .iter()
                .zip(after.iter().zip(before))
                .map(|(&name, (a, b))| (name.to_owned(), (a - b) / n))
                .collect()
        }
        _ => Vec::new(),
    };
    drop(env);

    // Per-unit means of every layer.
    let mut mean: BTreeMap<String, f64> = BTreeMap::new();
    for unit in &units {
        for (k, v) in unit {
            *mean.entry(k.clone()).or_default() += v / units.len() as f64;
        }
    }
    mean.extend(counters);
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let mut derived: Vec<(String, f64)> = vec![
        (
            "solver.derived_ratio".into(),
            util::ratio(get(&mean, "solver.derived"), get(&mean, "solver.fired")),
        ),
        (
            "algebra.compose_memo_hit_ratio".into(),
            util::ratio(
                get(&mean, "_compose_memo_hits"),
                get(&mean, "_compose_memo_lookups"),
            ),
        ),
        (
            "algebra.compose_bottom_ratio".into(),
            util::ratio(
                get(&mean, "_compose_bottom"),
                get(&mean, "algebra.compose_calls"),
            ),
        ),
        (
            "db.rederive_ratio".into(),
            util::ratio(get(&mean, "db.rederived"), get(&mean, "db.overdeleted")),
        ),
        (
            "result.points_to_us".into(),
            util::ratio(
                get(&mean, "result.points_to_ms") * 1000.0,
                get(&mean, "_points_to_vars"),
            ),
        ),
    ];
    for endpoint in layers::ENDPOINTS {
        derived.push((
            format!("server.reply_bytes.{endpoint}"),
            util::ratio(
                get(&mean, &format!("_reply_bytes.{endpoint}")),
                get(&mean, &format!("_replies.{endpoint}")),
            ),
        ));
    }
    for (_, metric) in layers::PHASES {
        let total: f64 = layers::ENDPOINTS
            .iter()
            .map(|e| get(&mean, &format!("{metric}.{e}")))
            .sum();
        mean.insert(metric.to_owned(), total);
    }
    let wire = get(&mean, "server.client_overhead_ms") - get(&mean, "server.serialize_ms");
    mean.insert("wire_client_ms".into(), wire);
    mean.extend(derived);

    // Reconciliation: self-time layers against the traced units' mean.
    let e2e = util::mean(&traced);
    let mut lines = vec![format!(
        "run workload={main:?} scale={scale} untraced_units={} traced_units={} attempted={} failed={}",
        untraced.len(),
        traced.len(),
        tally.attempted,
        tally.failed
    )];
    lines.push(format!("reconcile {main:?} end_to_end_ms {e2e:.3}"));
    let mut explained = 0.0;
    for &layer in self_layers(main) {
        let v = get(&mean, layer);
        explained += v;
        lines.push(format!(
            "reconcile {main:?} layer {layer} {v:.3} ms {:.1}%",
            util::ratio(v, e2e) * 100.0
        ));
    }
    let unexplained = e2e - explained;
    let unexplained_pct = util::ratio(unexplained, e2e) * 100.0;
    lines.push(format!(
        "reconcile {main:?} unexplained {unexplained:.3} ms {unexplained_pct:.1}%"
    ));
    mean.insert("reconcile.unexplained_ms".into(), unexplained);
    mean.insert("reconcile.unexplained_pct".into(), unexplained_pct);
    let overhead = util::ratio(median(&traced) - median(&untraced), median(&untraced)) * 100.0;
    mean.insert("obs.trace_overhead_pct".into(), overhead);

    let metrics = metrics::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let v = get(&mean, &name);
            (name, v, unit)
        })
        .collect();
    Ok(Report {
        lines,
        tally,
        metrics,
    })
}
