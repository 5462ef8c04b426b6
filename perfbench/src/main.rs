//! Closed-loop benchmark of the mrassign library's user paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <plan|simjoin|simjoin-spill|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The harness generates the workload's inputs from `--seed`, sets the
//! system up several times (reporting the median as `setup_s`), builds the
//! referees' expected outputs, and then drives operations in a closed loop
//! for `--seconds`. Every operation is checked by its referee; a failed
//! check counts as a failed operation. The last line of standard output is
//! the result object; the line before it is the run record (host noise,
//! percentile choice, span checks). `--trace 0` reports the end-to-end
//! metrics; `--trace 1` is a separate run that alternates untraced and
//! traced operations and reports the per-layer metrics plus the tracing
//! overhead. See `perfbench/README.md` for the workloads and metrics.

mod host;
mod inputs;
mod layers;
mod plan;
mod serve;
mod simjoin;
mod trace;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use layers::Layers;
use trace::Tracer;

/// Times the system is set up per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// `latency_tail_s` is the sample with exactly this many samples above it:
/// the highest percentile that still has that many beyond it.
const TAIL_BEYOND: usize = 10;

/// Samples every slice needs before the tail is taken per slice: enough
/// that the per-slice tail is at least the 90th percentile.
const TAIL_SLICE_MIN: usize = 10 * TAIL_BEYOND;

/// How often the window samples the process's resident memory.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// Equal time slices the window is cut into. `ops_per_s` and
/// `latency_p50_s` are medians over the slices, so a few seconds of host
/// interference move them less than a pooled figure would.
const SLICES: usize = 10;

const WORKLOADS: [&str; 4] = ["plan", "simjoin", "simjoin-spill", "serve"];

/// Directory, relative to the working directory, for the trace file, the
/// spill directory and the last untraced result.
const OUT_DIR: &str = ".bench_out";

/// Per-layer times summed from the spans of the same name.
const SPAN_METRICS: [(&str, &str); 6] = [
    ("core.solve", "core.solve_s"),
    ("core.route_compile", "core.compile_s"),
    ("mapreduce.job", "mapreduce.job_s"),
    ("joins.simjoin", "joins.simjoin_s"),
    ("dag.graph_build", "dag.graph_build_s"),
    ("dag.submit", "dag.submit_s"),
];

/// The tracing context of a traced operation.
#[derive(Clone, Copy)]
pub struct Traced<'a> {
    pub tracer: &'a Tracer,
    pub layers: &'a Layers,
}

/// One operation as handed to a workload.
pub struct Op<'a> {
    /// Which closed-loop client issues it.
    pub client: usize,
    /// Operation number within the client, from 0.
    pub seq: u64,
    /// Run-wide unique id; spans of one operation share it.
    pub id: u64,
    pub trace: Option<Traced<'a>>,
}

pub trait Workload: Sync {
    /// Closed-loop client threads that drive the workload.
    fn clients(&self) -> usize {
        1
    }

    /// Threads that can run library work at the same moment under this
    /// configuration; the harness refuses to run if it exceeds `nproc`.
    fn runnable_threads(&self) -> usize;

    /// Performs one operation and referees its output. Returns the
    /// seconds spent in the library calls an untraced operation makes
    /// (a traced operation may add calls around them, which are excluded).
    fn op(&self, op: &Op) -> Result<f64, String>;

    /// Sets the per-layer values that cover the whole traced window.
    fn finish(&self, _layers: &Layers, _window_ops: u64) {}

    /// Workload facts for the run record, as JSON values.
    fn record(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Builds a workload `SETUPS` times, timing each build, and keeps the
/// last. Earlier builds are dropped (untimed) before the next starts, so
/// they never share a spill directory or a server.
pub fn timed_setups<W>(
    mut build: impl FnMut() -> Result<W, String>,
) -> Result<(W, Vec<f64>), String> {
    let mut samples = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let w = build()?;
        samples.push(t.elapsed().as_secs_f64());
        last = Some(w);
    }
    Ok((last.expect("SETUPS > 0"), samples))
}

/// One operation that passed its referee.
struct Done {
    /// Seconds from the window's start to the operation's start and end.
    start: f64,
    end: f64,
    /// What the workload reported: seconds in the library calls.
    secs: f64,
    traced: bool,
}

#[derive(Default)]
struct ClientResult {
    done: Vec<Done>,
    failed: u64,
    failures: Vec<String>,
}

struct Window {
    /// (seconds from the window's start, resident MiB) samples.
    rss: Vec<(f64, f64)>,
    done: Vec<Done>,
    failed: u64,
    failures: Vec<String>,
    /// The requested length; operations started before it ran to the end.
    seconds: f64,
    elapsed: f64,
}

/// Drives the workload's clients in a closed loop until `seconds` have
/// passed; an operation started before the deadline runs to completion.
/// With `trace`, each client traces every other operation.
fn run_window(w: &dyn Workload, seconds: f64, trace: Option<Traced>) -> Window {
    let next_id = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let clients_done = AtomicBool::new(false);
    let (results, rss): (Vec<ClientResult>, Vec<(f64, f64)>) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = Vec::new();
            while !clients_done.load(Ordering::Relaxed) {
                if let Some(mb) = host::rss_mb() {
                    samples.push((start.elapsed().as_secs_f64(), mb));
                }
                std::thread::sleep(RSS_SAMPLE_EVERY);
            }
            samples
        });
        let handles: Vec<_> = (0..w.clients())
            .map(|client| {
                let next_id = &next_id;
                scope.spawn(move || {
                    let mut r = ClientResult::default();
                    let mut seq = 0;
                    while Instant::now() < deadline {
                        let traced = trace.filter(|_| seq % 2 == 0);
                        let op = Op {
                            client,
                            seq,
                            id: next_id.fetch_add(1, Ordering::Relaxed),
                            trace: traced,
                        };
                        let op_start = start.elapsed().as_secs_f64();
                        let outcome = catch_unwind(AssertUnwindSafe(|| w.op(&op)))
                            .unwrap_or_else(|_| Err("operation panicked".to_string()));
                        match outcome {
                            Ok(secs) => r.done.push(Done {
                                start: op_start,
                                end: start.elapsed().as_secs_f64(),
                                secs,
                                traced: traced.is_some(),
                            }),
                            Err(e) => {
                                r.failed += 1;
                                if r.failures.len() < 3 {
                                    r.failures.push(e);
                                }
                            }
                        }
                        seq += 1;
                    }
                    r
                })
            })
            .collect();
        let results = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("client thread panicked outside an operation")
            })
            .collect();
        clients_done.store(true, Ordering::Relaxed);
        (results, sampler.join().expect("memory sampler panicked"))
    });
    let mut window = Window {
        rss,
        done: Vec::new(),
        failed: 0,
        failures: Vec::new(),
        seconds,
        elapsed: start.elapsed().as_secs_f64(),
    };
    for r in results {
        window.done.extend(r.done);
        window.failed += r.failed;
        window.failures.extend(r.failures);
    }
    window
}

impl Window {
    fn secs(&self, traced: bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .done
            .iter()
            .filter(|d| d.traced == traced)
            .map(|d| d.secs)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Splits the requested window into `SLICES` equal slices. An
    /// operation counts towards each slice's rate in proportion to the
    /// share of its duration that falls inside, so slow operations do not
    /// make the rate jump; its time is filed under the slice it ended in.
    fn slices(&self) -> Vec<Slice> {
        let len = self.seconds / SLICES as f64;
        (0..SLICES)
            .map(|k| {
                let (lo, hi) = (k as f64 * len, (k + 1) as f64 * len);
                let share: f64 = self
                    .done
                    .iter()
                    .map(|d| {
                        (d.end.min(hi) - d.start.max(lo)).max(0.0) / (d.end - d.start).max(1e-12)
                    })
                    .sum();
                let mut secs: Vec<f64> = self
                    .done
                    .iter()
                    .filter(|d| !d.traced && d.end >= lo && d.end < hi)
                    .map(|d| d.secs)
                    .collect();
                secs.sort_by(f64::total_cmp);
                Slice {
                    rate: share / len,
                    rss_max: self
                        .rss
                        .iter()
                        .filter(|r| r.0 >= lo && r.0 < hi)
                        .map(|r| r.1)
                        .fold(0.0, f64::max),
                    secs,
                }
            })
            .collect()
    }
}

struct Slice {
    /// Passed operations per second.
    rate: f64,
    /// Highest resident memory sampled in the slice, in MiB.
    rss_max: f64,
    /// Sorted seconds of the untraced operations that ended in the slice.
    secs: Vec<f64>,
}

/// `latency_tail_s` as (percentile, value, whether per slice). When every
/// slice holds `TAIL_SLICE_MIN` samples, the median over slices of each
/// slice's tail, so one burst of host interference does not set it;
/// otherwise the tail of all samples.
fn tail_of(slices: &[Slice], pooled: &[f64]) -> Option<(f64, f64, bool)> {
    if slices.iter().all(|s| s.secs.len() >= TAIL_SLICE_MIN) {
        let tails: Vec<(f64, f64)> = slices.iter().filter_map(|s| tail(&s.secs)).collect();
        let pct: Vec<f64> = tails.iter().map(|t| t.0).collect();
        let value: Vec<f64> = tails.iter().map(|t| t.1).collect();
        return Some((median(&pct), median(&value), true));
    }
    tail(pooled).map(|(pct, value)| (pct, value, false))
}

/// The sample with `TAIL_BEYOND` samples above it, as (percentile, value).
/// `None` unless it lies above the median.
fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    (n >= 2 * TAIL_BEYOND).then(|| {
        let rank = n - TAIL_BEYOND;
        (100.0 * rank as f64 / n as f64, sorted[rank - 1])
    })
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, become `null` so the line still parses).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_list(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

fn json_obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), v))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn build(args: &Args, out_dir: &Path) -> Result<(Box<dyn Workload>, Vec<f64>), String> {
    fn boxed<W: Workload + 'static>(
        r: Result<(W, Vec<f64>), String>,
    ) -> Result<(Box<dyn Workload>, Vec<f64>), String> {
        r.map(|(w, s)| (Box::new(w) as Box<dyn Workload>, s))
    }
    match args.workload.as_str() {
        "plan" => boxed(plan::setup(args.seed)),
        "simjoin" => boxed(simjoin::setup(args.seed, None)),
        "simjoin-spill" => boxed(simjoin::setup(args.seed, Some(out_dir))),
        "serve" => boxed(serve::setup(args.seed)),
        other => Err(format!("unknown workload {other}")),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let nproc = host::nproc();
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let load_at_start = host::load_average();

    let (workload, setup_samples) = build(args, out_dir)?;
    let workload = workload.as_ref();
    if workload.runnable_threads() > nproc || workload.clients() > nproc {
        return Err(format!(
            "configuration runs {} library threads and {} clients on {} CPUs",
            workload.runnable_threads(),
            workload.clients(),
            nproc
        ));
    }

    let tracer = Tracer::new();
    let layers = Layers::default();
    let traced = args.trace.then_some(Traced {
        tracer: &tracer,
        layers: &layers,
    });
    let steal_before = host::steal_jiffies();
    let window = run_window(workload, args.seconds, traced);
    let steal_after = host::steal_jiffies();

    let passed = window.done.len() as u64;
    let attempted = passed + window.failed;
    let mut correct = window.failed == 0 && attempted > 0;
    let untraced = window.secs(false);
    let traced_secs = window.secs(true);
    let slices = window.slices();
    let last_untraced = out_dir.join(format!("{}-untraced-p50.txt", args.workload));

    let mut record: Vec<(&str, String)> = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("nproc", nproc.to_string()),
        ("runnable_threads", workload.runnable_threads().to_string()),
        ("clients", workload.clients().to_string()),
        (
            "load_average_at_start",
            load_at_start.map_or("null".into(), |l| json_list(l.map(json_num))),
        ),
        (
            "steal_jiffies_delta",
            match (steal_before, steal_after) {
                (Some(a), Some(b)) => b.saturating_sub(a).to_string(),
                _ => "null".into(),
            },
        ),
        (
            "setup_s_samples",
            json_list(setup_samples.iter().map(|&s| json_num(s))),
        ),
        ("window_s", json_num(window.elapsed)),
        (
            "ops_per_s_by_slice",
            json_list(slices.iter().map(|s| json_num(s.rate))),
        ),
        (
            "failures",
            json_list(window.failures.iter().map(|f| json_str(f))),
        ),
    ];
    record.extend(workload.record());

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        workload.finish(&layers, attempted);
        let spans = tracer.spans();
        let well_formed = trace::check_well_formed(&spans, tracer.opened());
        for (span, metric) in SPAN_METRICS {
            layers.add(metric, trace::total(&spans, span));
        }
        layers.add(
            "planner.self_s",
            trace::self_time(&spans, "planner.plan_a2a"),
        );
        layers.add("trace.spans", spans.len() as f64);
        let traced_p50 = (!traced_secs.is_empty()).then(|| median(&traced_secs));
        let overhead = match traced_p50 {
            Some(t) if !untraced.is_empty() => t / median(&untraced) - 1.0,
            _ => 0.0,
        };
        layers.set("trace.overhead_ratio", overhead);
        metrics.extend(layers.values(traced_secs.len() as u64));

        let report = layers.repeat_report();
        let trace_file = out_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        trace::write_chrome_trace(&spans, &trace_file)
            .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;
        let untraced_run_p50 = std::fs::read_to_string(&last_untraced)
            .ok()
            .and_then(|t| t.trim().parse::<f64>().ok());
        record.extend([
            ("traced_ops", traced_secs.len().to_string()),
            ("untraced_ops", untraced.len().to_string()),
            (
                "spans_well_formed",
                match &well_formed {
                    Ok(()) => "true".to_string(),
                    Err(e) => json_str(e),
                },
            ),
            ("trace_file", json_str(&trace_file.display().to_string())),
            (
                "overhead_vs_untraced_run",
                match (traced_p50, untraced_run_p50) {
                    (Some(t), Some(u)) if u > 0.0 => json_num(t / u - 1.0),
                    _ => "null".into(),
                },
            ),
            (
                "deterministic_values",
                json_obj(&[
                    ("checked", report.checked.to_string()),
                    ("repeated_exactly", report.repeated_exactly.to_string()),
                    (
                        "varied",
                        json_list(report.varied.iter().map(|v| json_str(v))),
                    ),
                ]),
            ),
            (
                "execution_dependent",
                json_list(layers::execution_dependent().iter().map(|v| json_str(v))),
            ),
        ]);
        correct &= well_formed.is_ok();
    } else {
        let (pct, tail_value, per_slice) = tail_of(&slices, &untraced).ok_or_else(|| {
            format!(
                "only {} operations completed; the tail percentile needs more",
                untraced.len()
            )
        })?;
        let rates: Vec<f64> = slices.iter().map(|s| s.rate).collect();
        let slice_p50s: Vec<f64> = slices
            .iter()
            .filter(|s| !s.secs.is_empty())
            .map(|s| percentile(&s.secs, 50.0))
            .collect();
        let p50 = median(&slice_p50s);
        let slice_rss: Vec<f64> = slices.iter().map(|s| s.rss_max).collect();
        if slice_rss.iter().any(|&mb| mb <= 0.0) {
            return Err("cannot sample resident memory".to_string());
        }
        metrics.extend([
            ("ops_per_s", "1/s", median(&rates)),
            ("latency_p50_s", "s", p50),
            ("latency_tail_s", "s", tail_value),
            ("peak_rss_mb", "MB", median(&slice_rss)),
            ("ok_ratio", "ratio", passed as f64 / attempted as f64),
            ("setup_s", "s", median(&setup_samples)),
        ]);
        record.extend([
            (
                "latency_tail",
                json_obj(&[
                    ("percentile", json_num(pct)),
                    ("samples", untraced.len().to_string()),
                    ("samples_beyond", TAIL_BEYOND.to_string()),
                    ("median_of_slices", per_slice.to_string()),
                ]),
            ),
            ("pooled_ops_per_s", json_num(passed as f64 / window.elapsed)),
            (
                "process_peak_rss_mb",
                host::peak_rss_mb().map_or("null".into(), json_num),
            ),
            (
                "pooled_latency_p50_s",
                json_num(percentile(&untraced, 50.0)),
            ),
        ]);
        // Lets a later traced run of this workload compare against it.
        let _ = std::fs::write(&last_untraced, format!("{p50}\n"));
    }

    println!("{}", json_obj(&[("record", json_obj(&record))]));
    let metric_fields: Vec<(&str, String)> = metrics
        .iter()
        .map(|&(name, unit, value)| {
            (
                name,
                json_obj(&[("value", json_num(value)), ("unit", json_str(unit))]),
            )
        })
        .collect();
    println!(
        "{}",
        json_obj(&[
            ("correct", correct.to_string()),
            ("attempted", attempted.to_string()),
            ("failed", window.failed.to_string()),
            ("metrics", json_obj(&metric_fields)),
        ])
    );
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
