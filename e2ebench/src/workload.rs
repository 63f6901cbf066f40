//! The benchmark's workloads: which registry table each one profiles,
//! which `ocdd profile` flags it runs with, and the report it must produce.

use ocddiscover::datasets::{Dataset, RowScale};
use ocddiscover::relation::sort::kernel_stats::KernelCounts;
use ocddiscover::relation::write_csv;
use ocddiscover::{DiscoveryConfig, ParallelMode};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DBTESMA 5,000 × 30, sequential: many checks over few rows.
    DbtesmaSearch,
    /// TPC-H LINEITEM 200,000 × 16, sequential: ingest-bound.
    LineitemIngest,
    /// DBTESMA 5,000 × 30 under `--threads 2 --mode steal`.
    DbtesmaSteal2,
}

/// The report a workload must produce, whatever the row permutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub rows: usize,
    pub columns: usize,
    pub checks: u64,
    pub ocds: usize,
    pub ods: usize,
    pub constants: usize,
    pub classes: usize,
    /// Candidates checked per BFS level, in level order.
    pub level_candidates: Vec<u64>,
    /// Sort and scan kernel runs of one `discover` call.
    pub kernels: KernelCounts,
    /// FNV-1a 64 digest of [`crate::pipeline::answer_text`].
    pub answer_digest: u64,
}

pub const ALL: [Workload; 3] = [
    Workload::DbtesmaSearch,
    Workload::LineitemIngest,
    Workload::DbtesmaSteal2,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::DbtesmaSearch => "dbtesma-search",
            Workload::LineitemIngest => "lineitem-ingest",
            Workload::DbtesmaSteal2 => "dbtesma-steal2",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The registry table and row count the input is generated from.
    pub fn input(self) -> (Dataset, usize) {
        match self {
            Workload::DbtesmaSearch | Workload::DbtesmaSteal2 => (Dataset::Dbtesma, 5_000),
            Workload::LineitemIngest => (Dataset::Lineitem, 200_000),
        }
    }

    /// The `ocdd profile` flags this workload stands for, as printed in
    /// the host record.
    pub fn profile_flags(self) -> &'static str {
        match self {
            Workload::DbtesmaSearch | Workload::LineitemIngest => "",
            Workload::DbtesmaSteal2 => "--threads 2 --mode steal",
        }
    }

    /// The mode `ocdd profile` runs with under [`Workload::profile_flags`].
    pub fn mode(self) -> ParallelMode {
        match self {
            Workload::DbtesmaSearch | Workload::LineitemIngest => ParallelMode::Sequential,
            Workload::DbtesmaSteal2 => ParallelMode::WorkStealing(2),
        }
    }

    /// The threads `discover` uses, column reduction included.
    pub fn threads(self) -> usize {
        match self.mode() {
            ParallelMode::WorkStealing(k) => k,
            _ => 1,
        }
    }

    /// The `DiscoveryConfig` `ocdd profile` builds from the workload's
    /// flags: the library default with the workload's mode.
    pub fn config(self) -> DiscoveryConfig {
        DiscoveryConfig {
            mode: self.mode(),
            ..DiscoveryConfig::default()
        }
    }

    /// The sequential workload whose report this one must reproduce byte
    /// for byte, if any.
    pub fn reference(self) -> Option<Workload> {
        match self {
            Workload::DbtesmaSteal2 => Some(Workload::DbtesmaSearch),
            _ => None,
        }
    }

    pub fn expected(self) -> Expected {
        match self {
            Workload::DbtesmaSearch | Workload::DbtesmaSteal2 => Expected {
                rows: 5_000,
                columns: 30,
                checks: 11_006,
                ocds: 204,
                ods: 6,
                constants: 1,
                classes: 2,
                level_candidates: vec![351, 975, 3_492, 4_968],
                kernels: KernelCounts {
                    counting: 1_001,
                    packed_radix: 10_005,
                    scan_block: 11_006,
                    ..KernelCounts::default()
                },
                answer_digest: 0x0133fe5b53bbcf7b,
            },
            Workload::LineitemIngest => Expected {
                rows: 200_000,
                columns: 16,
                checks: 376,
                ocds: 1,
                ods: 1,
                constants: 0,
                classes: 0,
                level_candidates: vec![120, 14],
                kernels: KernelCounts {
                    counting: 242,
                    packed_radix: 134,
                    scan_block: 376,
                    ..KernelCounts::default()
                },
                answer_digest: 0x18fa6d4c507cc4a7,
            },
        }
    }
}

/// SplitMix64: a tiny seeded generator, so the permutation depends on
/// nothing but the seed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so no residue is favoured.
    fn below(&mut self, n: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next();
            if x < zone {
                return x % n;
            }
        }
    }
}

/// Shuffle the data lines of a CSV text (header kept first) with a
/// seeded Fisher–Yates. Generated tables hold no quoted newlines, so a
/// line is a record.
pub fn permute_rows(csv: &str, seed: u64) -> String {
    let mut lines = csv.lines();
    let header = lines.next().unwrap_or("");
    let mut rows: Vec<&str> = lines.collect();
    let mut rng = SplitMix64(seed);
    for i in (1..rows.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        rows.swap(i, j);
    }
    let mut out = String::with_capacity(csv.len());
    out.push_str(header);
    out.push('\n');
    for row in rows {
        out.push_str(row);
        out.push('\n');
    }
    out
}

/// The workload's input as CSV text: the registry table at its fixed
/// generator seed, rows permuted by `seed`.
pub fn generate_csv(workload: Workload, seed: u64) -> String {
    let (dataset, rows) = workload.input();
    permute_rows(&write_csv(&dataset.generate(RowScale::Rows(rows))), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_keeps_every_row() {
        let csv = "h\n1\n2\n3\n4\n5\n6\n7\n8\n";
        assert_eq!(permute_rows(csv, 9), permute_rows(csv, 9));
        assert_ne!(permute_rows(csv, 9), permute_rows(csv, 10));
        let mut lines: Vec<&str> = Vec::new();
        let shuffled = permute_rows(csv, 9);
        lines.extend(shuffled.lines());
        assert_eq!(lines[0], "h");
        lines.sort_unstable();
        assert_eq!(lines, ["1", "2", "3", "4", "5", "6", "7", "8", "h"]);
    }
}
