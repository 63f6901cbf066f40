//! End-to-end benchmark of the `ocdd profile` pipeline.
//!
//! ```text
//! ocdd-e2ebench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's input (a registry table, rows permuted by the
//! seed) in a child process, then runs the pipeline back to back for `S`
//! seconds — one run at a time, a closed loop — and gates every run on
//! its report. The last line of standard output is the result object;
//! the line before it records the host, the input and the sample counts.
//! See README.md for the workloads and metrics.

mod host;
mod pipeline;
mod trace;
mod workload;

use ocddiscover::core::reduction::columns_reduction_with_threads;
use ocddiscover::{DiscoveryConfig, DiscoveryResult};
use pipeline::{Gate, RunOutput, StageTimes};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use workload::Workload;

/// Where inputs and trace files go, relative to the working directory.
const DATA_DIR: &str = ".bench_build/e2ebench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::by_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Removes the generated input when the benchmark ends, however it ends.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Write the workload's input in a child process, so neither generation
/// time nor generation memory reaches a metric.
fn generate_input(args: &Args) -> Result<TempFile, String> {
    std::fs::create_dir_all(DATA_DIR).map_err(|e| format!("create {DATA_DIR}: {e}"))?;
    let name = args.workload.name();
    let path = Path::new(DATA_DIR).join(format!(
        "{name}-seed{}-{}.csv",
        args.seed,
        std::process::id()
    ));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .arg("--generate")
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .arg("--out")
        .arg(&path)
        .status()
        .map_err(|e| format!("spawn generator: {e}"))?;
    let file = TempFile(path);
    if !status.success() {
        return Err(format!("generator exited with {status}"));
    }
    Ok(file)
}

/// The child side of [`generate_input`].
fn generate_main(args: &[String]) -> Result<(), String> {
    let (flags, out) = match args {
        [rest @ .., flag, out] if flag == "--out" => (rest, out),
        _ => return Err("--generate needs --workload, --seed and --out".to_owned()),
    };
    let parsed = parse_args(flags)?;
    std::fs::write(out, workload::generate_csv(parsed.workload, parsed.seed))
        .map_err(|e| format!("write {out}: {e}"))
}

/// The deterministic counters of one traced run, kept instead of the run
/// itself so no relation outlives its run (that would inflate the peak
/// resident set).
#[derive(Default)]
struct Counters {
    cells: usize,
    report_bytes: usize,
    attrs_kept: usize,
    reduction_checks: u64,
    result: DiscoveryResult,
}

#[derive(Default)]
struct Samples {
    attempted: u64,
    failed: u64,
    untraced: Vec<StageTimes>,
    /// Peak resident set of each untraced repetition, in MiB.
    untraced_rss: Vec<f64>,
    traced: Vec<StageTimes>,
    reduction: Vec<f64>,
    counters: Option<Counters>,
}

/// One pipeline run, gated; a panic counts as a failed run.
fn attempt(
    path: &Path,
    config: &DiscoveryConfig,
    gate: &mut Gate,
    tracer: Option<&mut Tracer>,
    run: u64,
) -> Result<RunOutput, String> {
    let out = catch_unwind(AssertUnwindSafe(|| {
        pipeline::run(path, config, tracer, run)
    }))
    .map_err(|_| "pipeline panicked".to_owned())??;
    gate.check(&out)?;
    Ok(out)
}

fn measure(
    args: &Args,
    path: &Path,
    config: &DiscoveryConfig,
    gate: &mut Gate,
) -> (Samples, Tracer) {
    let mut s = Samples::default();
    let start = Instant::now();
    let mut tracer = Tracer::new(start);
    let mut measuring_since = None;
    for run in 0u64.. {
        // Run 0 warms the page cache and the allocator; it is gated but
        // not timed. With tracing on, runs alternate untraced/traced.
        let traced = args.trace && run % 2 == 1;
        s.attempted += 1;
        if let Err(e) = host::reset_peak_rss() {
            s.failed += 1;
            eprintln!("run {run} failed: {e}");
            break;
        }
        match attempt(path, config, gate, traced.then_some(&mut tracer), run) {
            Err(e) => {
                s.failed += 1;
                eprintln!("run {run} failed: {e}");
            }
            Ok(out) if traced => {
                let t0 = Instant::now();
                let reduction =
                    columns_reduction_with_threads(&out.relation, args.workload.threads());
                let t1 = Instant::now();
                tracer.record("core.reduction", run, None, t0, t1);
                s.reduction.push(t1.duration_since(t0).as_secs_f64());
                s.traced.push(out.times);
                s.counters = Some(Counters {
                    cells: out.relation.num_rows() * out.relation.num_columns(),
                    report_bytes: out.report.len(),
                    attrs_kept: reduction.attributes.len(),
                    reduction_checks: reduction.checks,
                    result: out.result,
                });
            }
            Ok(out) if run > 0 => {
                s.untraced.push(out.times);
                s.untraced_rss.push(host::peak_rss_mb().unwrap_or(0.0));
            }
            Ok(_) => {}
        }
        let since = *measuring_since.get_or_insert_with(Instant::now);
        let have_all = !s.untraced.is_empty() && (!args.trace || !s.traced.is_empty());
        if run > 0 && have_all && since.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        if s.failed > 0 && s.untraced.is_empty() && s.traced.is_empty() && run >= 3 {
            break; // nothing passes; stop early
        }
    }
    (s, tracer)
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_of(samples: &[StageTimes], f: impl Fn(&StageTimes) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// The fastest repetition. Other tenants of a shared host only ever slow
/// a run down, and their slow phases cover changing shares of a run, so
/// the minimum estimates the program's own cost far more steadily than
/// the median does (see README.md, "Why the minimum").
fn fastest_of(samples: &[StageTimes], f: impl Fn(&StageTimes) -> f64) -> f64 {
    samples.iter().map(f).min_by(f64::total_cmp).unwrap_or(0.0)
}

fn end_to_end_metrics(s: &Samples) -> Vec<(&'static str, f64, &'static str)> {
    let u = &s.untraced;
    vec![
        ("profile_s", fastest_of(u, |t| t.profile), "s"),
        ("setup_s", median_of(u, StageTimes::setup), "s"),
        ("discover_s", fastest_of(u, |t| t.discover), "s"),
        ("peak_rss_mb", median(&s.untraced_rss), "MiB"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer_metrics(s: &Samples, input_bytes: u64) -> Vec<(&'static str, f64, &'static str)> {
    let t = &s.traced;
    let none = Counters::default();
    let c = s.counters.as_ref().unwrap_or(&none);
    let r = &c.result;
    let ingest = median_of(t, |x| x.ingest);
    let search: Vec<f64> = t
        .iter()
        .zip(&s.reduction)
        .map(|(x, red)| x.discover - red)
        .collect();
    let search_s = median(&search);
    let search_checks = r.checks.saturating_sub(c.reduction_checks) as f64;
    let level = |n: usize| -> f64 {
        r.levels
            .iter()
            .filter(|l| l.level == n)
            .map(|l| l.candidates)
            .sum::<u64>() as f64
    };
    // The scheduler and the shared cache report 0 when the run never
    // entered them (sequential mode; no caching backend).
    let workers: Vec<f64> = r
        .scheduler
        .iter()
        .flat_map(|s| &s.workers)
        .map(|w| w.batches as f64)
        .collect();
    let mean_batches = ratio(workers.iter().sum(), workers.len() as f64);
    let imbalance = ratio(workers.iter().copied().fold(0.0, f64::max), mean_batches);
    let (batches, steals) = r
        .scheduler
        .as_ref()
        .map_or((0, 0), |s| (s.batches, s.steals()));
    let (hits, misses, resident) = r
        .cache
        .as_ref()
        .map_or((0, 0, 0), |k| (k.hits, k.misses, k.resident_bytes));
    let k = &r.kernels;
    let profile_traced = median_of(t, |x| x.profile);
    vec![
        ("relation.csv.read_s", median_of(t, |x| x.read), "s"),
        ("relation.csv.ingest_s", ingest, "s"),
        (
            "relation.csv.mb_per_s",
            ratio(input_bytes as f64 / 1e6, ingest),
            "MB/s",
        ),
        ("relation.csv.cells", c.cells as f64, "count"),
        ("core.reduction.s", median(&s.reduction), "s"),
        ("core.reduction.attrs_kept", c.attrs_kept as f64, "count"),
        ("core.search.s", search_s, "s"),
        ("core.search.checks", search_checks, "count"),
        (
            "core.search.candidates_generated",
            r.candidates_generated as f64,
            "count",
        ),
        ("core.search.level2.candidates", level(2), "count"),
        ("core.search.level3.candidates", level(3), "count"),
        ("core.search.level4.candidates", level(4), "count"),
        ("core.search.level5.candidates", level(5), "count"),
        (
            "core.search.us_per_check",
            ratio(search_s * 1e6, search_checks),
            "us",
        ),
        (
            "core.search.valid_ratio",
            ratio((r.ocds.len() + r.ods.len()) as f64, r.checks as f64),
            "ratio",
        ),
        ("relation.sort.counting", k.counting as f64, "count"),
        ("relation.sort.packed_radix", k.packed_radix as f64, "count"),
        (
            "relation.sort.chained_refine",
            k.chained_refine as f64,
            "count",
        ),
        ("relation.sort.comparator", k.comparator as f64, "count"),
        ("relation.scan.block", k.scan_block as f64, "count"),
        ("relation.scan.scalar", k.scan_scalar as f64, "count"),
        ("relation.scan.simd", k.scan_simd as f64, "count"),
        ("core.scheduler.batches", batches as f64, "count"),
        ("core.scheduler.steals", steals as f64, "count"),
        ("core.scheduler.imbalance", imbalance, "ratio"),
        (
            "core.shared_cache.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        ),
        (
            "core.shared_cache.resident_mb",
            resident as f64 / f64::from(1u32 << 20),
            "MiB",
        ),
        ("core.json.report_s", median_of(t, |x| x.report), "s"),
        ("core.json.bytes", c.report_bytes as f64, "bytes"),
        (
            "bench.trace_overhead_s",
            profile_traced - median_of(&s.untraced, |x| x.profile),
            "s",
        ),
        (
            "fail_ratio",
            ratio(s.failed as f64, s.attempted as f64),
            "ratio",
        ),
    ]
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{}\":{{\"value\":{value},\"unit\":\"{unit}\"}}", name)
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn bench(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let input = generate_input(args)?;
    let input_bytes = std::fs::metadata(&input.0)
        .map_err(|e| e.to_string())?
        .len();
    let config = w.config();
    let mut gate = Gate {
        expected: w.expected(),
        reference_report: None,
    };
    if let Some(reference) = w.reference() {
        // The report this workload must reproduce byte for byte comes from
        // the reference workload's configuration on the same input.
        let mut reference_gate = Gate {
            expected: reference.expected(),
            reference_report: None,
        };
        attempt(&input.0, &reference.config(), &mut reference_gate, None, 0)
            .map_err(|e| format!("reference {} run failed: {e}", reference.name()))?;
        gate.reference_report = reference_gate.reference_report;
    }

    let (samples, tracer) = measure(args, &input.0, &config, &mut gate);

    let (dataset, rows) = w.input();
    let profile_samples: Vec<String> = samples
        .untraced
        .iter()
        .map(|t| t.profile.to_string())
        .collect();
    let detail = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\
         \"input\":{{\"dataset\":\"{}\",\"rows\":{rows},\"columns\":{},\"bytes\":{input_bytes}}},\
         \"profile_flags\":\"{}\",\"samples\":{},\"traced_samples\":{},\
         \"median_profile_s\":{},\"median_discover_s\":{},\"profile_s_samples\":[{}]}}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace,
        host::record(),
        dataset.name(),
        w.expected().columns,
        w.profile_flags(),
        samples.untraced.len(),
        samples.traced.len(),
        median_of(&samples.untraced, |t| t.profile),
        median_of(&samples.untraced, |t| t.discover),
        profile_samples.join(","),
    );
    println!("{detail}");

    let metrics = if args.trace {
        let path = Path::new(DATA_DIR).join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
        std::fs::write(&path, tracer.to_jsonl())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        metrics_json(&per_layer_metrics(&samples, input_bytes))
    } else {
        metrics_json(&end_to_end_metrics(&samples))
    };
    let correct = samples.failed == 0 && samples.attempted > 0;
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        samples.attempted, samples.failed
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--generate") {
        return match generate_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2ebench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = parse_args(&argv).and_then(|args| bench(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
