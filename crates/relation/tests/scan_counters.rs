//! The scan-kernel counters are process-wide, so an exact count can only
//! be asserted in a test binary where no other test scans concurrently.

use ocdd_relation::scan::od_scan;
use ocdd_relation::sort::{kernel_stats, sort_index_by};
use ocdd_relation::{Relation, Value};

#[test]
fn scans_bump_kernel_counters() {
    let col = || (0..200).map(Value::Int).collect::<Vec<Value>>();
    let rel = Relation::from_columns(vec![("c0".to_owned(), col()), ("c1".to_owned(), col())])
        .expect("equal-length columns");
    let index = sort_index_by(&rel, &[0]);
    let before = kernel_stats::snapshot();
    assert_eq!(od_scan(&rel, &[0], &[1], &index), None);
    let delta = kernel_stats::snapshot().since(&before);
    assert_eq!(delta.total_scans(), 1);
    assert_eq!(delta.scan_scalar, 0, "200 rows must dispatch blockwise");
}
