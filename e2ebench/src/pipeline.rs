//! One `ocdd profile` pipeline run, made of the public calls the CLI
//! makes, and the correctness gate every run passes through.

use crate::trace::Tracer;
use crate::workload::Expected;
use ocddiscover::core::json::result_to_json;
use ocddiscover::{discover, read_csv_str, CsvOptions, DiscoveryConfig, DiscoveryResult, Relation};
use std::path::Path;
use std::time::Instant;

/// Wall time of each stage of one run, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub read: f64,
    pub ingest: f64,
    pub discover: f64,
    pub report: f64,
    pub profile: f64,
}

impl StageTimes {
    /// File read plus `read_csv_str`: until the relation can be searched.
    pub fn setup(&self) -> f64 {
        self.read + self.ingest
    }
}

/// Everything one run produces.
pub struct RunOutput {
    pub relation: Relation,
    pub result: DiscoveryResult,
    pub report: String,
    pub times: StageTimes,
}

/// Run the pipeline once: `std::fs` read, `read_csv_str`, `discover`,
/// `result_to_json`. With a tracer, each call also becomes a span under
/// a `profile` span of run `run`.
pub fn run(
    path: &Path,
    config: &DiscoveryConfig,
    tracer: Option<&mut Tracer>,
    run: u64,
) -> Result<RunOutput, String> {
    let t0 = Instant::now();
    let t1;
    // The text lives only through the parse, as in the CLI's
    // `read_csv_path`, so it does not count toward the peak resident set
    // of `discover`.
    let relation = {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        t1 = Instant::now();
        read_csv_str(&text, &CsvOptions::default()).map_err(|e| format!("parse: {e}"))?
    };
    let t2 = Instant::now();
    let result = discover(&relation, config);
    let t3 = Instant::now();
    let report = result_to_json(&result, &relation);
    let t4 = Instant::now();
    if let Some(tracer) = tracer {
        let root = tracer.record("profile", run, None, t0, t4);
        tracer.record("relation.csv.read", run, Some(root), t0, t1);
        tracer.record("relation.csv.ingest", run, Some(root), t1, t2);
        tracer.record("core.discover", run, Some(root), t2, t3);
        tracer.record("core.json.report", run, Some(root), t3, t4);
    }
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Ok(RunOutput {
        relation,
        result,
        report,
        times: StageTimes {
            read: secs(t0, t1),
            ingest: secs(t1, t2),
            discover: secs(t2, t3),
            report: secs(t3, t4),
            profile: secs(t0, t4),
        },
    })
}

/// The report without the keys that legitimately differ between runs of
/// the same answer: `elapsed_ms` (wall time) and `scheduler` (worker
/// timing). Everything else, kernel counters included, must repeat.
pub fn normalize_report(report: &str) -> String {
    let mut out = report.to_owned();
    if let Some(start) = out.find("\"elapsed_ms\":") {
        if let Some(len) = out[start..].find(',') {
            out.replace_range(start..=start + len, "");
        }
    }
    if let Some(start) = out.find("\"scheduler\":{") {
        let open = start + "\"scheduler\":".len();
        let mut depth = 0usize;
        for (i, b) in out.bytes().enumerate().skip(open) {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        let end = if out.as_bytes().get(i + 1) == Some(&b',') {
                            i + 1
                        } else {
                            i
                        };
                        out.replace_range(start..=end, "");
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// The discovered answer as canonical text: constants, equivalence
/// classes, OCDs and ODs by column name, one per line.
pub fn answer_text(result: &DiscoveryResult, rel: &Relation) -> String {
    let names = |cols: &[usize]| -> String {
        let names: Vec<&str> = cols.iter().map(|&c| rel.meta(c).name.as_str()).collect();
        format!("[{}]", names.join(","))
    };
    let mut out = String::new();
    for &c in &result.constants {
        out.push_str(&format!("constant {}\n", rel.meta(c).name));
    }
    for class in &result.equivalence_classes {
        out.push_str(&format!("equivalent {}\n", names(class)));
    }
    for ocd in &result.ocds {
        out.push_str(&format!(
            "ocd {} ~ {}\n",
            names(ocd.lhs.as_slice()),
            names(ocd.rhs.as_slice())
        ));
    }
    for od in &result.ods {
        out.push_str(&format!(
            "od {} -> {}\n",
            names(od.lhs.as_slice()),
            names(od.rhs.as_slice())
        ));
    }
    out
}

/// FNV-1a 64.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What a run is checked against: the pinned answer, and the normalized
/// report every run of this process must reproduce byte for byte.
pub struct Gate {
    pub expected: Expected,
    pub reference_report: Option<String>,
}

impl Gate {
    /// Accept or reject one run. The first accepted run without a
    /// reference report becomes the reference, so later runs must repeat
    /// its deterministic counters exactly.
    pub fn check(&mut self, out: &RunOutput) -> Result<(), String> {
        let r = &out.result;
        if !r.complete() {
            return Err(format!("termination {}", r.termination));
        }
        let levels: Vec<u64> = r.levels.iter().map(|l| l.candidates).collect();
        let seen = Expected {
            rows: out.relation.num_rows(),
            columns: out.relation.num_columns(),
            checks: r.checks,
            ocds: r.ocds.len(),
            ods: r.ods.len(),
            constants: r.constants.len(),
            classes: r.equivalence_classes.len(),
            level_candidates: levels,
            kernels: r.kernels,
            answer_digest: fnv1a(answer_text(r, &out.relation).as_bytes()),
        };
        if seen != self.expected {
            return Err(format!(
                "answer {seen:?} differs from expected {:?}",
                self.expected
            ));
        }
        let normalized = normalize_report(&out.report);
        match &self.reference_report {
            Some(reference) if *reference != normalized => Err(format!(
                "report differs from the reference:\n  got      {normalized}\n  expected {reference}"
            )),
            Some(_) => Ok(()),
            None => {
                self.reference_report = Some(normalized);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! Self-test at smoke size: the real pipeline passes the gate, and the
    //! gate fails when the expectation or the reference report is tampered.

    use super::*;
    use crate::workload::permute_rows;
    use ocddiscover::datasets::{Dataset, RowScale};
    use ocddiscover::relation::sort::kernel_stats::KernelCounts;
    use ocddiscover::relation::write_csv;
    use ocddiscover::ParallelMode;
    use std::path::PathBuf;

    const SMOKE_ROWS: usize = 400;

    /// Kernel counters are process-wide, so test runs of the pipeline
    /// must not overlap or their reports would mix counts.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// The pinned answer for DBTESMA at [`SMOKE_ROWS`] rows.
    fn smoke_expected() -> Expected {
        Expected {
            rows: SMOKE_ROWS,
            columns: 30,
            checks: 10_395,
            ocds: 199,
            ods: 1,
            constants: 2,
            classes: 2,
            level_candidates: vec![325, 888, 3_276, 4_752],
            kernels: KernelCounts {
                counting: 938,
                packed_radix: 9_457,
                scan_block: 10_395,
                ..KernelCounts::default()
            },
            answer_digest: 0xdc6d7ba4e4219c1e,
        }
    }

    /// Runs the pipeline on DBTESMA at smoke size, rows permuted by `seed`.
    fn smoke_run(seed: u64, mode: ParallelMode) -> RunOutput {
        let _serial = SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let csv = write_csv(&Dataset::Dbtesma.generate(RowScale::Rows(SMOKE_ROWS)));
        let path: PathBuf =
            std::env::temp_dir().join(format!("ocdd-e2ebench-smoke-{}.csv", std::process::id()));
        std::fs::write(&path, permute_rows(&csv, seed)).expect("write smoke input");
        let config = DiscoveryConfig {
            mode,
            ..DiscoveryConfig::default()
        };
        let out = run(&path, &config, None, 0);
        let _ = std::fs::remove_file(&path);
        out.expect("smoke pipeline runs")
    }

    #[test]
    fn gate_accepts_the_real_pipeline_across_permutations() {
        let mut gate = Gate {
            expected: smoke_expected(),
            reference_report: None,
        };
        gate.check(&smoke_run(1, ParallelMode::Sequential))
            .expect("first permutation passes");
        gate.check(&smoke_run(2, ParallelMode::Sequential))
            .expect("second permutation repeats the report");
    }

    #[test]
    fn gate_fails_on_a_tampered_expectation() {
        let out = smoke_run(1, ParallelMode::Sequential);
        let tampered: [fn(&mut Expected); 6] = [
            |e| e.checks += 1,
            |e| e.ocds -= 1,
            |e| e.level_candidates[0] += 1,
            |e| e.kernels.counting += 1,
            |e| e.kernels.scan_block -= 1,
            |e| e.answer_digest ^= 1,
        ];
        for tamper in tampered {
            let mut expected = smoke_expected();
            tamper(&mut expected);
            let mut gate = Gate {
                expected,
                reference_report: None,
            };
            assert!(
                gate.check(&out).is_err(),
                "tampered expectation must fail the gate"
            );
        }
    }

    #[test]
    fn gate_fails_on_a_tampered_reference_report() {
        let out = smoke_run(1, ParallelMode::Sequential);
        let reference = normalize_report(&out.report).replacen("\"block\":", "\"block\":1", 1);
        let mut gate = Gate {
            expected: smoke_expected(),
            reference_report: Some(reference),
        };
        assert!(gate.check(&out).is_err());
    }

    #[test]
    fn work_stealing_report_equals_sequential() {
        let mut gate = Gate {
            expected: smoke_expected(),
            reference_report: None,
        };
        gate.check(&smoke_run(1, ParallelMode::Sequential))
            .expect("sequential passes");
        gate.check(&smoke_run(1, ParallelMode::WorkStealing(2)))
            .expect("steal-2 reproduces the sequential report");
    }

    #[test]
    fn normalize_drops_only_timing_and_scheduler() {
        let report = "{\"checks\":3,\"elapsed_ms\":1.250,\"kernels\":{\"a\":1},\
                      \"scheduler\":{\"batches\":2,\"workers\":[{\"batches\":1}]},\"ocds\":[]}";
        assert_eq!(
            normalize_report(report),
            "{\"checks\":3,\"kernels\":{\"a\":1},\"ocds\":[]}"
        );
    }
}
