//! Rank-encoded columns.
//!
//! Every column of a [`crate::Relation`] is compiled to a vector of dense
//! `u32` rank codes over the column's sorted distinct values (NULL, which
//! sorts first, always gets code 0 when present). Order comparisons between
//! two cells of the same column then reduce to integer comparisons, which is
//! what makes the candidate checker's inner loop cheap.
//!
//! There is one rank encoder, `Column::from_ids`: it takes each row's id
//! into a list of *d* distinct values, sorts only those values and
//! rewrites the ids into ranks in place, in O(m + d log d). The CSV
//! loader interns tokens into such ids; [`Column::encode`] numbers the
//! rows themselves. Row ids are `u32`, so a column holds at most
//! `u32::MAX` rows; entry points check that and return
//! [`crate::Error::TooManyRows`] before encoding.

use crate::datatype::{infer_type, DataType};
use crate::value::Value;

/// Physical storage width of a column's rank codes.
///
/// Codes are always available at full `u32` width ([`Column::codes`]);
/// when the distinct count fits a narrower integer the column *also*
/// carries a narrowed mirror ([`NarrowCodes`]), so the blockwise scan
/// kernels ([`crate::scan`]) read 4×/2× more codes per cache line on
/// low-cardinality columns. The width is a storage property only — the
/// dense ranks are identical at every width, so comparisons (and thus
/// every check outcome) are width-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CodeWidth {
    /// Distinct count ≤ 256: every code fits one byte.
    U8,
    /// Distinct count ≤ 65 536: every code fits two bytes.
    U16,
    /// Full-width codes only.
    U32,
}

impl CodeWidth {
    /// Short lowercase label (`"u8"` / `"u16"` / `"u32"`) for reports.
    pub fn label(&self) -> &'static str {
        match self {
            CodeWidth::U8 => "u8",
            CodeWidth::U16 => "u16",
            CodeWidth::U32 => "u32",
        }
    }
}

/// Whether `m` rows fit the `u32` row ids every column encodes with.
pub(crate) fn row_ids_fit(m: usize) -> bool {
    u32::try_from(m).is_ok()
}

/// Width-adaptive mirror of a column's rank codes (see [`CodeWidth`]).
#[derive(Debug, Clone, PartialEq)]
pub enum NarrowCodes {
    /// Byte-wide mirror: `narrow[r] == codes[r]` for every row.
    U8(Vec<u8>),
    /// Two-byte mirror: `narrow[r] == codes[r]` for every row.
    U16(Vec<u16>),
    /// No mirror — codes exist only at full width.
    U32,
}

impl NarrowCodes {
    /// Build the narrowest mirror that fits `distinct` dense ranks
    /// (ranks are `0..distinct`, so `distinct ≤ 2^w` fits width `w`).
    fn build(codes: &[u32], distinct: usize) -> NarrowCodes {
        if distinct <= 1 << 8 {
            // lint: allow(lossy-cast, codes are dense ranks < distinct <= 2^8 on this arm, so each fits u8)
            NarrowCodes::U8(codes.iter().map(|&c| c as u8).collect())
        } else if distinct <= 1 << 16 {
            // lint: allow(lossy-cast, codes are dense ranks < distinct <= 2^16 on this arm, so each fits u16)
            NarrowCodes::U16(codes.iter().map(|&c| c as u16).collect())
        } else {
            NarrowCodes::U32
        }
    }

    /// The width this mirror stores.
    pub fn width(&self) -> CodeWidth {
        match self {
            NarrowCodes::U8(_) => CodeWidth::U8,
            NarrowCodes::U16(_) => CodeWidth::U16,
            NarrowCodes::U32 => CodeWidth::U32,
        }
    }
}

/// Metadata describing one column of a relation.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    /// Column name (header).
    pub name: String,
    /// Inferred (or forced) data type used for ordering.
    pub data_type: DataType,
    /// Number of distinct values, counting NULL as one class.
    pub distinct: usize,
    /// Whether the column contains at least one NULL.
    pub has_nulls: bool,
}

impl ColumnMeta {
    /// A column is constant when every row carries the same value
    /// (an empty column is constant by convention).
    #[inline]
    pub fn is_constant(&self) -> bool {
        self.distinct <= 1
    }
}

/// One rank-encoded column: codes plus the decoded dictionary.
#[derive(Debug, Clone)]
pub struct Column {
    /// Per-row dense rank codes; `codes[r] < codes[s]` iff row `r`'s value
    /// sorts strictly before row `s`'s in this column.
    pub codes: Vec<u32>,
    /// Sorted distinct values; `dictionary[code]` decodes a rank.
    pub dictionary: Vec<Value>,
    /// Narrowed mirror of `codes` when the distinct count fits (see
    /// [`CodeWidth`]); kept in sync by [`Column::encode`] and
    /// [`Column::widen_code_width`].
    pub narrow: NarrowCodes,
    /// Column metadata.
    pub meta: ColumnMeta,
}

impl Column {
    /// Rank-encode `values` under the given name.
    ///
    /// The caller is responsible for having homogenized the values first
    /// (see [`crate::datatype::homogenize`]); encoding sorts whatever total
    /// order the values currently have. Among equal values (`Int(2)` and
    /// `Float(2.0)`) the dictionary keeps the first row's.
    ///
    /// # Panics
    /// If `values` holds more than `u32::MAX` rows (the row-id contract).
    pub fn encode(name: impl Into<String>, values: Vec<Value>) -> Column {
        let ids = (0u32..).zip(&values).map(|(id, _)| id).collect();
        Column::from_ids(name, ids, values)
    }

    /// Rank-encode a column given as per-row ids into `distinct`: row `r`
    /// holds `distinct[ids[r]]`, and every entry of `distinct` is used by
    /// at least one row.
    ///
    /// Sorts the *d* distinct values, merges equal neighbours and rewrites
    /// `ids` into rank codes in place, moving each kept value into the
    /// dictionary. Equal values share one rank, and the dictionary keeps
    /// the one with the smallest id. O(m + d log d).
    ///
    /// # Panics
    /// If `ids` has more than `u32::MAX` rows: row ids are `u32` across
    /// the whole pipeline, and this is where a column's rows get them.
    /// Callers check [`row_ids_fit`] and return
    /// [`crate::Error::TooManyRows`] first.
    // lint: allow(panic-reachability, rank_of has one slot per distinct value: the pairs carry their own enumeration and the caller contract keeps every row id below d)
    pub(crate) fn from_ids(
        name: impl Into<String>,
        mut ids: Vec<u32>,
        distinct: Vec<Value>,
    ) -> Column {
        let m = ids.len();
        assert!(
            row_ids_fit(m),
            "row ids are u32: {m} rows exceed the supported maximum"
        );
        debug_assert!(distinct.len() <= m, "every distinct value has a row");
        let data_type = infer_type(distinct.iter());
        let has_nulls = distinct.iter().any(Value::is_null);

        // Sort (value, id) pairs: values sit next to their ids, so no
        // comparison goes back through `distinct`, and equal values come
        // in increasing id order.
        let mut keyed: Vec<(Value, u32)> = distinct.into_iter().zip(0u32..).collect();
        keyed.sort_unstable();
        let mut rank_of = vec![0u32; keyed.len()];
        let mut dictionary: Vec<Value> = Vec::new();
        let mut rank = 0u32;
        for (v, id) in keyed {
            match dictionary.last() {
                Some(prev) if *prev == v => {}
                Some(_) => {
                    // lint: allow(overflow-prone-arith, rank increments at most once per distinct value and d <= m <= u32::MAX by the row-id assert)
                    rank += 1;
                    dictionary.push(v);
                }
                None => dictionary.push(v),
            }
            // lint: allow(lossy-cast, id is the u32 the pair was numbered with, so it widens losslessly)
            rank_of[id as usize] = rank;
        }
        for id in &mut ids {
            *id = rank_of[*id as usize];
        }

        let distinct = dictionary.len();
        let narrow = NarrowCodes::build(&ids, distinct);
        Column {
            codes: ids,
            dictionary,
            narrow,
            meta: ColumnMeta {
                name: name.into(),
                data_type,
                distinct,
                has_nulls,
            },
        }
    }

    /// Storage width of this column's narrowest code mirror.
    #[inline]
    pub fn code_width(&self) -> CodeWidth {
        self.narrow.width()
    }

    /// Widen the narrow mirror to at least `min` (no-op when the natural
    /// width is already ≥ `min`); widening to [`CodeWidth::U32`] drops
    /// the mirror entirely.
    ///
    /// Checks are width-independent by construction; this exists so the
    /// determinism matrix and the kernel benches can sweep widths over
    /// the *same* data.
    pub fn widen_code_width(&mut self, min: CodeWidth) {
        if self.narrow.width() >= min {
            return;
        }
        self.narrow = match min {
            CodeWidth::U8 => NarrowCodes::build(&self.codes, self.meta.distinct),
            // lint: allow(lossy-cast, widening only: the current mirror is U8, so every code fits u8 and a fortiori u16)
            CodeWidth::U16 => NarrowCodes::U16(self.codes.iter().map(|&c| c as u16).collect()),
            CodeWidth::U32 => NarrowCodes::U32,
        };
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Decode the value of row `row`.
    #[inline]
    pub fn value(&self, row: usize) -> &Value {
        &self.dictionary[self.codes[row] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn encode_assigns_dense_ranks_in_value_order() {
        let col = Column::encode("a", ints(&[30, 10, 20, 10]));
        assert_eq!(col.codes, vec![2, 0, 1, 0]);
        assert_eq!(col.meta.distinct, 3);
        assert_eq!(col.dictionary, ints(&[10, 20, 30]));
    }

    #[test]
    fn encode_null_gets_rank_zero() {
        let col = Column::encode("a", vec![Value::Int(5), Value::Null, Value::Int(1)]);
        assert_eq!(col.codes[1], 0, "NULL sorts first");
        assert!(col.meta.has_nulls);
        assert_eq!(col.dictionary[0], Value::Null);
    }

    #[test]
    fn encode_preserves_comparison_order() {
        let values = vec![
            Value::Str("b".into()),
            Value::Null,
            Value::Str("a".into()),
            Value::Str("b".into()),
        ];
        let col = Column::encode("s", values.clone());
        for i in 0..values.len() {
            for j in 0..values.len() {
                assert_eq!(
                    values[i].cmp(&values[j]),
                    col.codes[i].cmp(&col.codes[j]),
                    "codes must mirror value order for rows {i},{j}"
                );
            }
        }
    }

    #[test]
    fn constant_column_detected() {
        let col = Column::encode("c", ints(&[7, 7, 7]));
        assert!(col.meta.is_constant());
        let col = Column::encode("c", vec![Value::Null, Value::Null]);
        assert!(col.meta.is_constant());
        let col = Column::encode("c", Vec::new());
        assert!(col.meta.is_constant());
    }

    #[test]
    fn value_decodes_original() {
        let vals = vec![Value::Str("x".into()), Value::Int(3), Value::Null];
        // Mixed columns are unusual but still encodable (typed Str overall).
        let col = Column::encode("m", vals.clone());
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(col.value(i), v);
        }
    }

    #[test]
    fn narrow_mirror_matches_full_width_codes() {
        // 3 distinct -> u8 mirror.
        let col = Column::encode("a", ints(&[30, 10, 20, 10]));
        assert_eq!(col.code_width(), CodeWidth::U8);
        match &col.narrow {
            NarrowCodes::U8(n) => {
                assert!(n.iter().zip(&col.codes).all(|(&a, &b)| a as u32 == b));
            }
            other => panic!("expected u8 mirror, got {other:?}"),
        }
        // 300 distinct -> u16 mirror.
        let col = Column::encode("b", ints(&(0..300).collect::<Vec<i64>>()));
        assert_eq!(col.code_width(), CodeWidth::U16);
        match &col.narrow {
            NarrowCodes::U16(n) => {
                assert!(n.iter().zip(&col.codes).all(|(&a, &b)| a as u32 == b));
            }
            other => panic!("expected u16 mirror, got {other:?}"),
        }
    }

    #[test]
    fn width_boundaries_are_exact() {
        let col = Column::encode("a", ints(&(0..256).collect::<Vec<i64>>()));
        assert_eq!(col.code_width(), CodeWidth::U8, "256 distinct fits u8");
        let col = Column::encode("a", ints(&(0..257).collect::<Vec<i64>>()));
        assert_eq!(col.code_width(), CodeWidth::U16, "257 distinct needs u16");
    }

    #[test]
    fn widen_code_width_only_widens() {
        let mut col = Column::encode("a", ints(&[1, 2, 1]));
        assert_eq!(col.code_width(), CodeWidth::U8);
        col.widen_code_width(CodeWidth::U16);
        assert_eq!(col.code_width(), CodeWidth::U16);
        col.widen_code_width(CodeWidth::U8); // no-op: never narrows
        assert_eq!(col.code_width(), CodeWidth::U16);
        col.widen_code_width(CodeWidth::U32);
        assert_eq!(col.code_width(), CodeWidth::U32);
        assert_eq!(col.narrow, NarrowCodes::U32);
    }

    #[test]
    fn from_ids_ranks_the_distinct_values_and_rewrites_ids() {
        // Rows hold 20, 30, 10, 30, 20.
        let col = Column::from_ids("a", vec![2, 0, 1, 0, 2], ints(&[30, 10, 20]));
        assert_eq!(col.codes, vec![1, 2, 0, 2, 1]);
        assert_eq!(col.dictionary, ints(&[10, 20, 30]));
        assert_eq!(col.meta.distinct, 3);
    }

    #[test]
    fn equal_values_share_a_rank_and_keep_the_smallest_id() {
        let distinct = vec![
            Value::Float(2.5),
            Value::Float(2.0),
            Value::Null,
            Value::Int(2),
            Value::Null,
        ];
        let col = Column::from_ids("a", vec![0, 1, 2, 3, 4], distinct);
        assert_eq!(col.codes, vec![2, 1, 0, 1, 0]);
        assert_eq!(col.meta.distinct, 3);
        assert!(
            matches!(col.dictionary[1], Value::Float(_)),
            "id 1 came first"
        );
        let col = Column::encode("a", vec![Value::Int(7), Value::Float(7.0)]);
        assert!(matches!(col.dictionary[0], Value::Int(7)));
    }

    #[test]
    fn integers_beyond_2_pow_53_keep_distinct_ranks() {
        let big = 9_007_199_254_740_992i64;
        let col = Column::encode("a", ints(&[big + 1, big, big + 1]));
        assert_eq!(col.codes, vec![1, 0, 1]);
        // Next to a float, too.
        let mut vals = ints(&[big + 1, big]);
        vals.push(Value::Float(0.5));
        let col = Column::encode("a", vals);
        assert_eq!(col.codes, vec![2, 1, 0]);
    }

    #[test]
    fn mixed_ints_and_strings_rank_numbers_first() {
        let vals = vec![
            Value::Str("10".into()),
            Value::Int(10),
            Value::Str("9".into()),
            Value::Null,
            Value::Int(9),
        ];
        let col = Column::encode("m", vals);
        assert_eq!(col.codes, vec![3, 2, 4, 0, 1]);
    }

    #[test]
    fn row_ids_fit_u32() {
        assert!(row_ids_fit(0));
        assert!(row_ids_fit(u32::MAX as usize));
        assert!(!row_ids_fit(u32::MAX as usize + 1));
    }

    #[test]
    fn duplicate_heavy_column_small_dictionary() {
        let vals: Vec<Value> = (0..1000).map(|i| Value::Int(i % 3)).collect();
        let col = Column::encode("q", vals);
        assert_eq!(col.meta.distinct, 3);
        assert_eq!(col.dictionary.len(), 3);
        assert_eq!(col.len(), 1000);
    }
}
