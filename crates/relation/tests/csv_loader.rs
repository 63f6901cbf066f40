//! Differential test of the CSV loader against a record-at-a-time oracle.
//!
//! The oracle is the loader this crate used to ship: `parse_records`
//! (below, unchanged) splits the text into `Vec<Vec<String>>`, every cell
//! goes through `Value::parse`, and `Relation::from_columns_typed` types
//! and rank-encodes the columns. It carries the loader's two typing rules:
//! integers compare exactly (that lives in `Value::cmp`), and a column
//! typed `Str` keeps each number's token as written.
//!
//! Inputs are strings over quotes, `""` escapes, separators, CRLF, blank
//! lines, NULL tokens, `NaN`, `inf`, signed and zero-padded numbers,
//! integers beyond 2^53 and multi-byte UTF-8, read under both header
//! modes, both typing modes and two separators. Both sides must agree on
//! Ok/Err, and on Ok on the manifest hash, the metadata, the codes (full
//! and narrow) and every decoded value, variant included.

use ocdd_relation::datatype::infer_type;
use ocdd_relation::{
    manifest_hash, read_csv_str, CsvOptions, DataType, Error, Relation, Result, TypingMode, Value,
};
use proptest::prelude::*;

/// Split raw CSV text into records of string fields.
fn parse_records(text: &str, sep: char) -> Result<Vec<Vec<String>>> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut chars = text.chars().peekable();
    let mut saw_any = false;

    while let Some(c) = chars.next() {
        saw_any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push(c);
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    if !field.is_empty() {
                        return Err(Error::Csv {
                            line,
                            message: "quote inside unquoted field".into(),
                        });
                    }
                    in_quotes = true;
                }
                '\r' => {} // tolerate CRLF
                '\n' => {
                    line += 1;
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                c if c == sep => record.push(std::mem::take(&mut field)),
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(Error::Csv {
            line,
            message: "unterminated quoted field".into(),
        });
    }
    // Final record without trailing newline.
    if saw_any && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

/// The oracle loader: records, then one `Value` per cell, then
/// `from_columns_typed`. Also returns each column's typed cell values.
fn oracle_read(text: &str, opts: &CsvOptions) -> Result<(Relation, Vec<Vec<Value>>)> {
    let mut records = parse_records(text, opts.separator)?.into_iter();
    let Some(first) = records.next() else {
        return Ok((Relation::from_columns_typed(vec![], opts.typing)?, vec![]));
    };
    let arity = first.len();
    let names: Vec<String> = if opts.has_header {
        first.clone()
    } else {
        (0..arity).map(|i| format!("col{i}")).collect()
    };
    let data_records = if opts.has_header { None } else { Some(first) };
    let mut tokens: Vec<Vec<String>> = vec![Vec::new(); arity];
    for record in data_records.into_iter().chain(records) {
        if record.len() != arity {
            return Err(Error::Csv {
                line: 0,
                message: "ragged".into(),
            });
        }
        for (column, token) in tokens.iter_mut().zip(record) {
            column.push(token);
        }
    }

    let nulls: Vec<&str> = opts.null_tokens.iter().map(String::as_str).collect();
    let named: Vec<(String, Vec<Value>)> = names
        .into_iter()
        .zip(tokens)
        .map(|(name, column)| {
            let mut values: Vec<Value> = column.iter().map(|t| Value::parse(t, &nulls)).collect();
            let str_typed = opts.typing == TypingMode::ForceLexicographic
                || infer_type(values.iter()) == DataType::Str;
            if str_typed {
                for (v, token) in values.iter_mut().zip(column) {
                    if matches!(v, Value::Int(_) | Value::Float(_)) {
                        *v = Value::Str(token);
                    }
                }
            }
            (name, values)
        })
        .collect();
    let cells = named.iter().map(|(_, values)| values.clone()).collect();
    Ok((Relation::from_columns_typed(named, opts.typing)?, cells))
}

/// Ok/Err agreement, and on Ok equality of everything a relation holds.
/// The codes must also mirror the order of the oracle's cell values, which
/// checks the rank encoder the two sides share.
fn compare(text: &str, opts: &CsvOptions) -> std::result::Result<(), TestCaseError> {
    let (got, want) = (read_csv_str(text, opts), oracle_read(text, opts));
    let (got, (want, cells)) = match (got, want) {
        (Ok(got), Ok(want)) => (got, want),
        (Err(_), Err(_)) => return Ok(()),
        (got, want) => {
            return Err(TestCaseError::fail(format!(
                "{text:?} {opts:?}: loader {:?}, oracle {:?}",
                got.map(|r| r.num_rows()),
                want.map(|(r, _)| r.num_rows())
            )))
        }
    };
    prop_assert_eq!(
        manifest_hash(&got),
        manifest_hash(&want),
        "{:?} {:?}",
        text,
        opts
    );
    prop_assert_eq!(got.num_rows(), want.num_rows());
    prop_assert_eq!(got.num_columns(), want.num_columns());
    for (c, cells) in cells.iter().enumerate() {
        prop_assert_eq!(got.meta(c), want.meta(c));
        prop_assert_eq!(got.codes(c), want.codes(c));
        prop_assert_eq!(got.narrow_codes(c), want.narrow_codes(c));
        for (r, cell) in cells.iter().enumerate() {
            // Debug tells variants (and -0.0 from 0.0) apart.
            let (g, w) = (
                format!("{:?}", got.value(r, c)),
                format!("{:?}", want.value(r, c)),
            );
            prop_assert_eq!(g, w, "{:?} {:?} row {} col {}", text, opts, r, c);
            prop_assert_eq!(got.value(r, c), cell);
            for (s, other) in cells.iter().enumerate() {
                prop_assert_eq!(
                    got.code(r, c).cmp(&got.code(s, c)),
                    cell.cmp(other),
                    "{:?} {:?} rows {} {} col {}",
                    text,
                    opts,
                    r,
                    s,
                    c
                );
            }
        }
    }
    Ok(())
}

/// Cell tokens: NULL tokens, numbers that parse to equal values, integers
/// around 2^53 and past i64, strings, and quoted forms.
const CELLS: &[&str] = &[
    "",
    "?",
    "NULL",
    "NaN",
    "nan",
    "inf",
    "-inf",
    "Infinity",
    "+5",
    "5",
    "007",
    "7",
    "2.0",
    "2",
    "1.50",
    "1.5",
    "-0",
    "0",
    "-0.0",
    "1e3",
    "1000",
    "9007199254740993",
    "9007199254740992",
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
    "a",
    "b",
    "x y",
    "é",
    "日本",
    "🦀",
    "\"a,b\"",
    "\"a;b\"",
    "\"q\"\"q\"",
    "\"\"",
    "\"7\"",
    "\"l1\nl2\"",
    "\"\r\"",
];

/// Structure and noise: separators, quotes, line ends, multi-byte text.
const NOISE: &[&str] = &[
    ",", ";", "\"", "\"\"", "\n", "\r\n", "\r", "\n\n", "a", "7", "2.0", "NaN", "?", "é", "→",
];

fn options(bits: u8) -> CsvOptions {
    CsvOptions {
        separator: if bits & 1 == 0 { ',' } else { ';' },
        has_header: bits & 2 == 0,
        typing: if bits & 4 == 0 {
            TypingMode::Infer
        } else {
            TypingMode::ForceLexicographic
        },
        ..CsvOptions::default()
    }
}

/// A table of `arity` columns from `cells`, with `noise` spliced in at
/// pseudo-random points when `shape` asks for it.
fn table(cells: &[usize], arity: usize, shape: u8, noise: &[usize], sep: char) -> String {
    let eol = if shape & 1 == 0 { "\n" } else { "\r\n" };
    let mut text = String::new();
    for (i, &cell) in cells.iter().enumerate() {
        text.push_str(CELLS[cell]);
        text.push_str(if (i + 1) % arity == 0 {
            eol
        } else if sep == ',' {
            ","
        } else {
            ";"
        });
    }
    if shape & 2 != 0 {
        text.pop(); // no final newline
    }
    if shape & 4 != 0 {
        for (k, &piece) in noise.iter().enumerate() {
            let mut at = (k * 7919 + piece * 31) % (text.len() + 1);
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            text.insert_str(at, NOISE[piece]);
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn loader_matches_oracle_on_tables(
        cells in prop::collection::vec(0..CELLS.len(), 0..30),
        arity in 1usize..5,
        shape in 0u8..8,
        noise in prop::collection::vec(0..NOISE.len(), 0..4),
        bits in 0u8..8,
    ) {
        let opts = options(bits);
        compare(&table(&cells, arity, shape, &noise, opts.separator), &opts)?;
    }

    #[test]
    fn loader_matches_oracle_on_noise(
        pieces in prop::collection::vec(0..NOISE.len() + CELLS.len(), 0..40),
        bits in 0u8..8,
    ) {
        let text: String = pieces
            .iter()
            .map(|&p| if p < NOISE.len() { NOISE[p] } else { CELLS[p - NOISE.len()] })
            .collect();
        compare(&text, &options(bits))?;
    }
}

#[test]
fn loader_matches_oracle_on_pinned_inputs() {
    let inputs = [
        "",
        "\n",
        "a",
        "a\n\"\"",
        "a\n\"\"\r",
        "a\n\"\"\r\"x\"\n",
        "a\n\n\n",
        "a,b\n\"x\ny\",1\n2\n",
        "id\n9007199254740993\n9007199254740992\n",
        "a\n007\n7\nx\n",
        "a\n1.50\n1.5\n",
        "a\n2.0\n2\n-0\n0\n-0.0\n",
        "a\n\"q\"\"q\"x\n\"\"\"\"\n",
        "a;b\r\n1;2\r\n",
        "é,🦀\n日本,\"a\r\nb\"\n",
    ];
    for text in inputs {
        for bits in 0..8 {
            if let Err(e) = compare(text, &options(bits)) {
                panic!("{e}");
            }
        }
    }
}
