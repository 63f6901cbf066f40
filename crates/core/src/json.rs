//! Hand-rolled JSON export of discovery results (no serde dependency).
//!
//! The output is a stable, documented schema for downstream tooling:
//!
//! ```json
//! {
//!   "rows": 6, "columns": 5, "complete": true,
//!   "termination": "complete",
//!   "checks": 87, "elapsed_ms": 0.41,
//!   "constants": ["flag"],
//!   "equivalence_classes": [["income", "tax"]],
//!   "ocds": [{"lhs": ["income"], "rhs": ["savings"]}],
//!   "ods":  [{"lhs": ["income"], "rhs": ["bracket"]}]
//! }
//! ```
//!
//! `termination` is the [`crate::TerminationReason`] label
//! (`complete` / `level_cap` / `check_budget` / `time_budget` /
//! `cancelled` / `worker_failure`); `complete` is kept as the derived
//! boolean. A `worker_failure` run additionally carries
//! `"failed_branches": [[colA, colB], ...]` (quarantined level-2 branch
//! seed pairs, as column names) and `"failure_message"`. A `StaticQueues`
//! or `WorkStealing` run (not a `Sequential` one) carries `"scheduler": {"batches", "levels", "steals", "workers":
//! [{"batches", "steals"}, ...]}` — scheduling observability, not part of
//! the deterministic result. Every run carries `"kernels": {"sorts":
//! {"counting", "packed_radix", "chained_refine", "comparator"},
//! "scans": {"scalar", "block", "simd"}}` — which sort/scan kernels the
//! run's checks dispatched to (observability; the dependencies found are
//! kernel-independent). A checkpointed run carries `"checkpoint":
//! {"snapshots_written", "files_deleted", "write_errors", "last_level"}` —
//! again observability only.

use crate::deps::AttrList;
use crate::results::DiscoveryResult;
use ocdd_relation::Relation;
use std::fmt::Write as _;

/// Escape a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn name_array(list: &AttrList, rel: &Relation) -> String {
    let names: Vec<String> = list
        .as_slice()
        .iter()
        .map(|&c| format!("\"{}\"", escape(&rel.meta(c).name)))
        .collect();
    format!("[{}]", names.join(","))
}

/// Serialize a [`DiscoveryResult`] to JSON, resolving column ids to names
/// through `rel`.
pub fn result_to_json(result: &DiscoveryResult, rel: &Relation) -> String {
    let mut out = String::new();
    out.push('{');
    let _ = write!(
        out,
        "\"rows\":{},\"columns\":{},\"complete\":{},\"termination\":\"{}\",",
        rel.num_rows(),
        rel.num_columns(),
        result.complete(),
        result.termination.label(),
    );
    if let crate::runtime::TerminationReason::WorkerFailure { branches, message } =
        &result.termination
    {
        let pairs: Vec<String> = branches
            .iter()
            .map(|&(a, b)| {
                format!(
                    "[\"{}\",\"{}\"]",
                    escape(&rel.meta(a).name),
                    escape(&rel.meta(b).name)
                )
            })
            .collect();
        let _ = write!(
            out,
            "\"failed_branches\":[{}],\"failure_message\":\"{}\",",
            pairs.join(","),
            escape(message)
        );
    }
    let _ = write!(
        out,
        "\"checks\":{},\"elapsed_ms\":{:.3},",
        result.checks,
        result.elapsed.as_secs_f64() * 1e3
    );
    let k = &result.kernels;
    let _ = write!(
        out,
        "\"kernels\":{{\"sorts\":{{\"counting\":{},\"packed_radix\":{},\"chained_refine\":{},\"comparator\":{}}},\"scans\":{{\"scalar\":{},\"block\":{},\"simd\":{}}}}},",
        k.counting,
        k.packed_radix,
        k.chained_refine,
        k.comparator,
        k.scan_scalar,
        k.scan_block,
        k.scan_simd,
    );
    if let Some(sched) = &result.scheduler {
        let workers: Vec<String> = sched
            .workers
            .iter()
            .map(|w| format!("{{\"batches\":{},\"steals\":{}}}", w.batches, w.steals))
            .collect();
        let _ = write!(
            out,
            "\"scheduler\":{{\"batches\":{},\"levels\":{},\"steals\":{},\"workers\":[{}]}},",
            sched.batches,
            sched.levels,
            sched.steals(),
            workers.join(",")
        );
    }
    if let Some(ckpt) = &result.checkpoint {
        let _ = write!(
            out,
            "\"checkpoint\":{{\"snapshots_written\":{},\"files_deleted\":{},\"write_errors\":{},\"last_level\":{}}},",
            ckpt.snapshots_written, ckpt.files_deleted, ckpt.write_errors, ckpt.last_level,
        );
    }

    let constants: Vec<String> = result
        .constants
        .iter()
        .map(|&c| format!("\"{}\"", escape(&rel.meta(c).name)))
        .collect();
    let _ = write!(out, "\"constants\":[{}],", constants.join(","));

    let classes: Vec<String> = result
        .equivalence_classes
        .iter()
        .map(|class| {
            let names: Vec<String> = class
                .iter()
                .map(|&c| format!("\"{}\"", escape(&rel.meta(c).name)))
                .collect();
            format!("[{}]", names.join(","))
        })
        .collect();
    let _ = write!(out, "\"equivalence_classes\":[{}],", classes.join(","));

    let ocds: Vec<String> = result
        .ocds
        .iter()
        .map(|o| {
            format!(
                "{{\"lhs\":{},\"rhs\":{}}}",
                name_array(&o.lhs, rel),
                name_array(&o.rhs, rel)
            )
        })
        .collect();
    let _ = write!(out, "\"ocds\":[{}],", ocds.join(","));

    let ods: Vec<String> = result
        .ods
        .iter()
        .map(|o| {
            format!(
                "{{\"lhs\":{},\"rhs\":{}}}",
                name_array(&o.lhs, rel),
                name_array(&o.rhs, rel)
            )
        })
        .collect();
    let _ = write!(out, "\"ods\":[{}]", ods.join(","));
    out.push('}');
    out
}

/// Serialize an [`ApproximateResult`](crate::ApproximateResult) to JSON.
///
/// Same envelope as [`result_to_json`] where the fields coincide
/// (`rows`/`columns`/`complete`/`termination`/`checks`/`ocds`/`ods`) —
/// OCDs additionally carry their measured `error` with its exact
/// `removals`/`rows` rational — plus an `"approx"` object with the
/// pipeline's triage accounting: `sample_rows`, `total_rows`, `seed`,
/// `sample_manifest`, `exhaustive`, `estimated` (sample-phase
/// validations), `accepted_by_sample`, `rejected_by_sample`, `escalated`
/// (full-data verifications), `full_checks_saved`, and the
/// `sample_row_scans`/`full_row_scans` cost model.
pub fn approx_result_to_json(result: &crate::ApproximateResult, rel: &Relation) -> String {
    let mut out = String::new();
    out.push('{');
    let _ = write!(
        out,
        "\"rows\":{},\"columns\":{},\"complete\":{},\"termination\":\"{}\",\"checks\":{},",
        rel.num_rows(),
        rel.num_columns(),
        result.complete(),
        result.termination.label(),
        result.checks,
    );
    if let Some(a) = &result.approx {
        let _ = write!(
            out,
            "\"approx\":{{\"sample_rows\":{},\"total_rows\":{},\"seed\":{},\"sample_manifest\":\"{:016x}\",\"exhaustive\":{},\"estimated\":{},\"accepted_by_sample\":{},\"rejected_by_sample\":{},\"escalated\":{},\"full_checks_saved\":{},\"sample_row_scans\":{},\"full_row_scans\":{}}},",
            a.sample_rows,
            a.total_rows,
            a.seed,
            a.sample_manifest,
            a.exhaustive,
            a.estimated,
            a.accepted_by_sample,
            a.rejected_by_sample,
            a.escalated,
            a.full_checks_saved,
            a.sample_row_scans,
            a.full_row_scans,
        );
    }
    let ocds: Vec<String> = result
        .ocds
        .iter()
        .map(|o| {
            format!(
                "{{\"lhs\":{},\"rhs\":{},\"error\":{:.6},\"removals\":{},\"rows\":{}}}",
                name_array(&o.ocd.lhs, rel),
                name_array(&o.ocd.rhs, rel),
                o.error,
                o.removals,
                o.rows,
            )
        })
        .collect();
    let _ = write!(out, "\"ocds\":[{}],", ocds.join(","));
    let ods: Vec<String> = result
        .ods
        .iter()
        .map(|o| {
            format!(
                "{{\"lhs\":{},\"rhs\":{}}}",
                name_array(&o.lhs, rel),
                name_array(&o.rhs, rel)
            )
        })
        .collect();
    let _ = write!(out, "\"ods\":[{}]", ods.join(","));
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{discover, DiscoveryConfig};
    use ocdd_relation::Value;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb"), "a\\nb");
        assert_eq!(escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn json_shape_on_tax_like_table() {
        let rel = Relation::from_columns(vec![
            (
                "income".to_string(),
                vec![1, 2, 2, 3].into_iter().map(Value::Int).collect(),
            ),
            (
                "tax".to_string(),
                vec![10, 20, 20, 30].into_iter().map(Value::Int).collect(),
            ),
            ("flag".to_string(), vec![Value::Int(0); 4]),
        ])
        .unwrap();
        let result = discover(&rel, &DiscoveryConfig::default());
        let json = result_to_json(&result, &rel);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"constants\":[\"flag\"]"), "{json}");
        assert!(
            json.contains("\"equivalence_classes\":[[\"income\",\"tax\"]]"),
            "{json}"
        );
        assert!(json.contains("\"complete\":true"));
        assert!(json.contains("\"termination\":\"complete\""));
        assert!(json.contains("\"kernels\":{\"sorts\":{"), "{json}");
        assert!(json.contains("\"scans\":{\"scalar\":"), "{json}");
    }

    #[test]
    fn worker_failure_carries_branches_and_message() {
        let rel = Relation::from_columns(vec![
            ("a".to_string(), vec![Value::Int(1), Value::Int(2)]),
            ("b".to_string(), vec![Value::Int(1), Value::Int(2)]),
        ])
        .unwrap();
        let result = DiscoveryResult {
            termination: crate::TerminationReason::WorkerFailure {
                branches: vec![(0, 1)],
                message: "boom \"quoted\"".into(),
            },
            ..DiscoveryResult::default()
        };
        let json = result_to_json(&result, &rel);
        assert!(
            json.contains("\"termination\":\"worker_failure\""),
            "{json}"
        );
        assert!(json.contains("\"complete\":false"), "{json}");
        assert!(
            json.contains("\"failed_branches\":[[\"a\",\"b\"]]"),
            "{json}"
        );
        assert!(
            json.contains("\"failure_message\":\"boom \\\"quoted\\\"\""),
            "{json}"
        );
    }

    #[test]
    fn workstealing_run_emits_scheduler_stats() {
        let rel = Relation::from_columns(vec![
            (
                "a".to_string(),
                vec![1, 2, 3, 4].into_iter().map(Value::Int).collect(),
            ),
            (
                "b".to_string(),
                vec![2, 1, 4, 3].into_iter().map(Value::Int).collect(),
            ),
            (
                "c".to_string(),
                vec![1, 3, 2, 4].into_iter().map(Value::Int).collect(),
            ),
        ])
        .unwrap();
        let config = DiscoveryConfig {
            mode: crate::ParallelMode::WorkStealing(2),
            ..DiscoveryConfig::default()
        };
        let result = discover(&rel, &config);
        let json = result_to_json(&result, &rel);
        assert!(json.contains("\"scheduler\":{\"batches\":"), "{json}");
        assert!(json.contains("\"workers\":[{\"batches\":"), "{json}");
        // Sequential runs must not carry the key.
        let seq = discover(&rel, &DiscoveryConfig::default());
        assert!(!result_to_json(&seq, &rel).contains("\"scheduler\""));
    }

    #[test]
    fn approx_json_carries_triage_accounting_and_errors() {
        let rel = Relation::from_columns(vec![
            ("a".to_string(), (0..20).map(Value::Int).collect()),
            (
                "b".to_string(),
                (0..20).map(|i| Value::Int(i / 2)).collect(),
            ),
        ])
        .unwrap();
        let res = crate::discover_approximate(&rel, &DiscoveryConfig::default(), 0.0);
        let json = approx_result_to_json(&res, &rel);
        assert!(json.contains("\"approx\":{\"sample_rows\":20"), "{json}");
        assert!(json.contains("\"exhaustive\":true"), "{json}");
        assert!(json.contains("\"full_checks_saved\":0"), "{json}");
        assert!(json.contains("\"error\":0.000000"), "{json}");
        assert!(json.contains("\"removals\":0"), "{json}");
        // Structural balance, same validator as the exact export test.
        let mut depth = 0i32;
        let mut in_str = false;
        let mut escaped = false;
        for c in json.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
    }

    #[test]
    fn json_is_parseable_by_a_naive_validator() {
        // Bracket/quote balance check — catches structural mistakes without
        // a JSON dependency.
        let rel = Relation::from_columns(vec![(
            "weird \"name\"\n".to_string(),
            vec![Value::Int(1), Value::Int(2)],
        )])
        .unwrap();
        let result = discover(&rel, &DiscoveryConfig::default());
        let json = result_to_json(&result, &rel);
        let mut depth = 0i32;
        let mut in_str = false;
        let mut escaped = false;
        for c in json.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
