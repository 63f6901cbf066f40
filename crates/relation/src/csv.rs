//! Minimal CSV reader/writer (RFC-4180 subset) — no external dependency.
//!
//! Supports quoted fields with embedded separators, quotes (`""` escape) and
//! newlines; configurable separator and NULL tokens; optional header row.
//!
//! # Grammar
//!
//! - A record ends at a `\n` outside quotes. A `\r` outside quotes is
//!   dropped wherever it appears, so CRLF files read like LF files.
//! - A `"` opens a quoted section only while its field is still empty
//!   (otherwise: "quote inside unquoted field"). Inside quotes, `""` is
//!   a literal quote and a lone `"` closes the section; text after the
//!   closing quote belongs to the same field. A quote still open at the
//!   end of the text is "unterminated quoted field".
//! - A blank line is a record of one empty field. A final record without
//!   a trailing newline counts unless it is a single empty field.
//!
//! # How [`read_csv_str`] loads
//!
//! 1. **One pass over the bytes.** A field is a borrowed slice of the
//!    text unless it needs unescaping; only then is it copied.
//! 2. **Per-column interning.** Each record is interned as soon as it
//!    ends: every column maps field text to a dense id in first-seen
//!    order and stores one `u32` per row. The map hashes with a fast
//!    word-at-a-time hasher keyed by a per-process random seed, so a
//!    crafted file cannot choose colliding tokens; it is only looked up,
//!    never iterated, so nothing the loader returns depends on the seed.
//! 3. **Typing on the distinct tokens.** [`Value::parse`], the column
//!    type and [`TypingMode`] run once per distinct token. In a `Str`
//!    column every token stays as written (`007` stays `007`).
//! 4. **Ranking.** The column's rank encoder sorts the distinct values
//!    and rewrites the row ids into rank codes in place.
//!
//! # Errors
//!
//! Errors come in file order: the first fault in the text is the one
//! reported. A record with the wrong number of fields is reported at the
//! physical line where it starts, once it ends; a quote error at the line
//! where it is found, so an unterminated quote at the end of the file
//! loses to a ragged record before it. More data rows than `u32` row ids
//! can number is [`Error::TooManyRows`], returned before any column is
//! encoded.

use crate::column::{row_ids_fit, Column};
use crate::datatype::{homogenize_with, TypingMode};
use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::io::Read;
use std::path::Path;
use std::sync::OnceLock;

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field separator (default `,`).
    pub separator: char,
    /// Whether the first record is a header of column names (default true;
    /// otherwise columns are named `col0`, `col1`, ...).
    pub has_header: bool,
    /// Tokens parsed as NULL (default: empty string, `?`, `NULL`).
    pub null_tokens: Vec<String>,
    /// Typing mode applied when building the relation.
    pub typing: TypingMode,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            separator: ',',
            has_header: true,
            null_tokens: vec![String::new(), "?".to_owned(), "NULL".to_owned()],
            typing: TypingMode::Infer,
        }
    }
}

/// What ended a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// The separator: the record goes on.
    Field,
    /// A newline outside quotes.
    Record,
    /// The end of the text.
    Eof,
}

/// The text of a field being read: one contiguous slice of the input
/// (empty at first), or an owned copy once the field is made of more than
/// one slice (after an escaped quote, a dropped `\r` or text following a
/// closing quote).
enum FieldText {
    Span(usize, usize),
    Owned(String),
}

impl FieldText {
    fn is_empty(&self) -> bool {
        matches!(self, FieldText::Span(start, end) if start == end)
    }

    /// Append `src[start..end]`.
    fn add_span(&mut self, src: &str, start: usize, end: usize) {
        if start == end {
            return;
        }
        match self {
            FieldText::Span(s, e) if s == e => (*s, *e) = (start, end),
            FieldText::Span(_, e) if *e == start => *e = end,
            FieldText::Span(s, e) => {
                let mut owned = String::with_capacity(*e - *s + end - start);
                owned.push_str(&src[*s..*e]);
                owned.push_str(&src[start..end]);
                *self = FieldText::Owned(owned);
            }
            FieldText::Owned(owned) => owned.push_str(&src[start..end]),
        }
    }

    fn into_field(self, src: &str) -> Cow<'_, str> {
        match self {
            FieldText::Span(start, end) => Cow::Borrowed(&src[start..end]),
            FieldText::Owned(owned) => Cow::Owned(owned),
        }
    }
}

/// The byte pass: reads fields and records off the text, tracking the
/// physical line.
struct Scanner<'a> {
    src: &'a str,
    pos: usize,
    /// 1-based line of `pos`.
    line: usize,
    /// UTF-8 bytes of the separator, and the first of them.
    sep: Vec<u8>,
    sep_lead: u8,
    /// `stop[b]`: byte `b` may end an unquoted run — `"`, `\r`, `\n` or
    /// the separator's first byte.
    stop: [bool; 256],
}

impl<'a> Scanner<'a> {
    fn new(src: &'a str, separator: char) -> Scanner<'a> {
        let mut buf = [0u8; 4];
        let sep = separator.encode_utf8(&mut buf).as_bytes().to_vec();
        let sep_lead = buf[0];
        let mut stop = [false; 256];
        for b in [b'"', b'\r', b'\n', sep_lead] {
            stop[usize::from(b)] = true;
        }
        Scanner {
            src,
            pos: 0,
            line: 1,
            sep,
            sep_lead,
            stop,
        }
    }

    /// End of the unquoted run starting at `from`: the first `"`, `\r`,
    /// `\n` or separator, or the end of the text.
    fn unquoted_run_end(&self, from: usize) -> usize {
        let bytes = self.src.as_bytes();
        let mut i = from;
        while let Some(&b) = bytes.get(i) {
            // A multi-byte separator's lead byte starts other characters
            // too, so it stops the run only where the whole separator does.
            if self.stop[usize::from(b)]
                && (b != self.sep_lead
                    || bytes
                        .get(i..)
                        .is_some_and(|rest| rest.starts_with(&self.sep)))
            {
                break;
            }
            i += 1;
        }
        i
    }

    /// Read one field, and what ended it.
    fn field(&mut self) -> Result<(Cow<'a, str>, End)> {
        let src = self.src;
        let mut text = FieldText::Span(self.pos, self.pos);
        loop {
            let stop = self.unquoted_run_end(self.pos);
            text.add_span(src, self.pos, stop);
            let Some(&b) = src.as_bytes().get(stop) else {
                self.pos = stop;
                return Ok((text.into_field(src), End::Eof));
            };
            self.pos = stop + 1;
            match b {
                b'"' => {
                    if !text.is_empty() {
                        return Err(Error::Csv {
                            line: self.line,
                            message: "quote inside unquoted field".into(),
                        });
                    }
                    self.quoted(&mut text)?;
                }
                b'\r' => {} // tolerate CRLF
                b'\n' => {
                    self.line += 1;
                    return Ok((text.into_field(src), End::Record));
                }
                _ => {
                    self.pos = stop + self.sep.len();
                    return Ok((text.into_field(src), End::Field));
                }
            }
        }
    }

    /// Read a quoted section from just after its opening quote through its
    /// closing quote, appending its text to `text`.
    fn quoted(&mut self, text: &mut FieldText) -> Result<()> {
        let bytes = self.src.as_bytes();
        loop {
            let mut i = self.pos;
            loop {
                match bytes.get(i) {
                    None => {
                        return Err(Error::Csv {
                            line: self.line,
                            message: "unterminated quoted field".into(),
                        })
                    }
                    Some(b'"') => break,
                    Some(b'\n') => self.line += 1,
                    Some(_) => {}
                }
                i += 1;
            }
            text.add_span(self.src, self.pos, i);
            if bytes.get(i + 1) == Some(&b'"') {
                // `""`: the first quote is the literal one.
                text.add_span(self.src, i, i + 1);
                self.pos = i + 2;
            } else {
                self.pos = i + 1;
                return Ok(());
            }
        }
    }

    /// Read the next record into `fields`. Returns the line it starts on,
    /// or `None` once the text is exhausted.
    fn next_record(&mut self, fields: &mut Vec<Cow<'a, str>>) -> Result<Option<usize>> {
        fields.clear();
        let line = self.line;
        loop {
            let (text, end) = self.field()?;
            if end == End::Eof && fields.is_empty() && text.is_empty() {
                return Ok(None);
            }
            fields.push(text);
            if end != End::Field {
                return Ok(Some(line));
            }
        }
    }
}

/// Builds [`TokenHasher`]s keyed with this process's random seed.
#[derive(Debug, Clone, Copy)]
struct TokenHash {
    seed: u64,
    key: u64,
}

impl TokenHash {
    /// The per-process keys, drawn once from [`RandomState`].
    fn process() -> TokenHash {
        static KEYS: OnceLock<TokenHash> = OnceLock::new();
        *KEYS.get_or_init(|| {
            let state = RandomState::new();
            TokenHash {
                seed: state.hash_one(0u8),
                key: state.hash_one(1u8) | 1,
            }
        })
    }
}

impl BuildHasher for TokenHash {
    type Hasher = TokenHasher;

    fn build_hasher(&self) -> TokenHasher {
        TokenHasher {
            state: self.seed,
            key: self.key,
        }
    }
}

/// Word-at-a-time hasher in the style of foldhash: a token of up to 16
/// bytes is read as two (overlapping) words, and each 16-byte block is
/// folded into the state with one 64×64→128-bit multiply whose operands
/// are XORed with secret keys. Without the keys, colliding tokens cannot
/// be predicted.
struct TokenHasher {
    state: u64,
    key: u64,
}

/// XOR of the two halves of the 128-bit product `x * y`.
#[inline]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let product = u128::from(x) * u128::from(y);
    // lint: allow(lossy-cast, keeping the low 64 bits of the product is the point: the high half is folded in separately)
    (product as u64) ^ ((product >> 64) as u64)
}

/// Little-endian word from the first 8 bytes of `bytes` (at least 8 long).
#[inline]
fn word64(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(buf)
}

/// Little-endian word from the first 4 bytes of `bytes` (at least 4 long).
#[inline]
fn word32(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&bytes[..4]);
    u64::from(u32::from_le_bytes(buf))
}

impl Hasher for TokenHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let len = bytes.len();
        // The length keeps tokens whose overlapping reads coincide apart.
        let mut state = self.state ^ len as u64;
        let (a, b) = if len > 16 {
            let mut rest = bytes;
            while rest.len() > 16 {
                state = folded_multiply(word64(rest) ^ state, word64(&rest[8..]) ^ self.key);
                rest = &rest[16..];
            }
            (word64(&bytes[len - 16..]), word64(&bytes[len - 8..]))
        } else if len >= 8 {
            (word64(bytes), word64(&bytes[len - 8..]))
        } else if len >= 4 {
            (word32(bytes), word32(&bytes[len - 4..]))
        } else if len > 0 {
            let (first, mid, last) = (bytes[0], bytes[len / 2], bytes[len - 1]);
            (
                u64::from(first) << 16 | u64::from(mid) << 8 | u64::from(last),
                0,
            )
        } else {
            (0, 0)
        };
        self.state = folded_multiply(a ^ state, b ^ self.key);
    }

    /// `str` ends its hash with one `0xff` byte; the state is already
    /// mixed, so a rotate-and-XOR is enough here.
    #[inline]
    fn write_u8(&mut self, byte: u8) {
        self.state = self.state.rotate_left(8) ^ u64::from(byte);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// One column under construction: its distinct tokens in first-seen
/// order, and each row's id into them.
struct Interner<'a> {
    ids: Vec<u32>,
    tokens: Vec<Cow<'a, str>>,
    index: HashMap<Cow<'a, str>, u32, TokenHash>,
}

impl<'a> Interner<'a> {
    fn new(hash: TokenHash) -> Interner<'a> {
        Interner {
            ids: Vec::new(),
            tokens: Vec::new(),
            index: HashMap::with_hasher(hash),
        }
    }

    /// Append one row holding `token`.
    fn intern(&mut self, token: Cow<'a, str>) {
        let id = match self.index.get(token.as_ref()) {
            Some(&id) => id,
            None => {
                // lint: allow(lossy-cast, distinct tokens <= rows <= u32::MAX: read_csv_str checks row_ids_fit before interning each row)
                let id = self.tokens.len() as u32;
                self.index.insert(token.clone(), id);
                self.tokens.push(token);
                id
            }
        };
        self.ids.push(id);
    }

    /// Type the distinct tokens and rank-encode the column.
    fn into_column(self, name: String, null_tokens: &[&str], mode: TypingMode) -> Column {
        let Interner {
            ids, mut tokens, ..
        } = self;
        let mut values: Vec<Value> = tokens
            .iter()
            .map(|token| Value::parse(token, null_tokens))
            .collect();
        homogenize_with(&mut values, mode, |i, _| {
            std::mem::take(&mut tokens[i]).into_owned()
        });
        Column::from_ids(name, ids, values)
    }
}

/// Parse CSV text into a [`Relation`] (see the module docs for the
/// grammar, the loading steps and the order of errors).
pub fn read_csv_str(text: &str, opts: &CsvOptions) -> Result<Relation> {
    let mut scanner = Scanner::new(text, opts.separator);
    let mut fields = Vec::new();
    let Some(first_line) = scanner.next_record(&mut fields)? else {
        return Relation::from_columns_typed(vec![], opts.typing);
    };
    let hash = TokenHash::process();
    let mut columns: Vec<Interner> = fields.iter().map(|_| Interner::new(hash)).collect();
    let mut rows = 0usize;
    let names: Vec<String> = if opts.has_header {
        fields.drain(..).map(Cow::into_owned).collect()
    } else {
        let names = (0..columns.len()).map(|i| format!("col{i}")).collect();
        push_row(&mut columns, &mut fields, first_line, &mut rows)?;
        names
    };
    while let Some(line) = scanner.next_record(&mut fields)? {
        push_row(&mut columns, &mut fields, line, &mut rows)?;
    }

    let null_tokens: Vec<&str> = opts.null_tokens.iter().map(String::as_str).collect();
    let columns = names
        .into_iter()
        .zip(columns)
        .map(|(name, column)| column.into_column(name, &null_tokens, opts.typing))
        .collect();
    Ok(Relation::from_encoded(columns, rows))
}

/// Intern the record in `fields` (starting on `line`) as row `*rows`.
fn push_row<'a>(
    columns: &mut [Interner<'a>],
    fields: &mut Vec<Cow<'a, str>>,
    line: usize,
    rows: &mut usize,
) -> Result<()> {
    if fields.len() != columns.len() {
        return Err(Error::Csv {
            line,
            message: format!("expected {} fields, found {}", columns.len(), fields.len()),
        });
    }
    let count = rows.saturating_add(1);
    if !row_ids_fit(count) {
        return Err(Error::TooManyRows { rows: count });
    }
    *rows = count;
    for (column, field) in columns.iter_mut().zip(fields.drain(..)) {
        column.intern(field);
    }
    Ok(())
}

/// Read a CSV file from disk.
pub fn read_csv_path(path: impl AsRef<Path>, opts: &CsvOptions) -> Result<Relation> {
    let mut text = String::new();
    std::fs::File::open(path)?.read_to_string(&mut text)?;
    read_csv_str(&text, opts)
}

/// Quote a field if it contains the separator, quotes or newlines.
fn quote_field(field: &str, sep: char) -> String {
    if field.contains(sep) || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Serialize a relation back to CSV text (header included).
pub fn write_csv(rel: &Relation) -> String {
    let sep = ',';
    let mut out = String::new();
    let header: Vec<String> = rel
        .column_names()
        .iter()
        .map(|n| quote_field(n, sep))
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in 0..rel.num_rows() {
        let fields: Vec<String> = (0..rel.num_columns())
            .map(|c| quote_field(&rel.value(row, c).to_string(), sep))
            .collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;

    #[test]
    fn basic_parse_with_header() {
        let r = read_csv_str("a,b\n1,x\n2,y\n", &CsvOptions::default()).unwrap();
        assert_eq!(r.num_rows(), 2);
        assert_eq!(r.column_names(), vec!["a", "b"]);
        assert_eq!(r.value(0, 0), &Value::Int(1));
        assert_eq!(r.value(1, 1), &Value::Str("y".into()));
    }

    #[test]
    fn no_header_names_columns() {
        let opts = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let r = read_csv_str("1,2\n3,4\n", &opts).unwrap();
        assert_eq!(r.column_names(), vec!["col0", "col1"]);
        assert_eq!(r.num_rows(), 2);
    }

    #[test]
    fn quoted_fields_with_separator_and_quotes() {
        let r = read_csv_str(
            "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n",
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(r.value(0, 0), &Value::Str("x,y".into()));
        assert_eq!(r.value(0, 1), &Value::Str("he said \"hi\"".into()));
    }

    #[test]
    fn quoted_field_with_newline() {
        let r = read_csv_str("a\n\"line1\nline2\"\n", &CsvOptions::default()).unwrap();
        assert_eq!(r.value(0, 0), &Value::Str("line1\nline2".into()));
    }

    #[test]
    fn null_tokens_become_null() {
        let r = read_csv_str("a,b,c\n1,?,\n", &CsvOptions::default()).unwrap();
        assert_eq!(r.value(0, 1), &Value::Null);
        assert_eq!(r.value(0, 2), &Value::Null);
    }

    #[test]
    fn crlf_tolerated() {
        let r = read_csv_str("a,b\r\n1,2\r\n", &CsvOptions::default()).unwrap();
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.value(0, 1), &Value::Int(2));
    }

    #[test]
    fn missing_final_newline_ok() {
        let r = read_csv_str("a\n1\n2", &CsvOptions::default()).unwrap();
        assert_eq!(r.num_rows(), 2);
    }

    #[test]
    fn ragged_record_is_error() {
        let err = read_csv_str("a,b\n1\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, Error::Csv { line: 2, .. }));
    }

    #[test]
    fn ragged_record_reports_the_line_it_starts_on() {
        // The quoted newline makes the ragged record `2` start on line 4,
        // though it is the third record.
        let err = read_csv_str("a,b\n\"x\ny\",1\n2\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, Error::Csv { line: 4, .. }), "{err}");
    }

    #[test]
    fn errors_come_in_file_order() {
        // A ragged record wins over an unterminated quote after it...
        let err = read_csv_str("a,b\n1\n\"oops", &CsvOptions::default()).unwrap_err();
        assert!(
            matches!(&err, Error::Csv { line: 2, message } if message.starts_with("expected 2")),
            "{err}"
        );
        // ...and a quote error wins over a ragged record after it.
        let err = read_csv_str("a,b\nx\"y,1\n2\n", &CsvOptions::default()).unwrap_err();
        assert!(
            matches!(&err, Error::Csv { line: 2, message } if message.contains("quote")),
            "{err}"
        );
    }

    #[test]
    fn integers_beyond_2_pow_53_keep_distinct_ranks() {
        let r = read_csv_str(
            "id\n9007199254740993\n9007199254740992\n",
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(r.meta(0).distinct, 2);
        assert!(!r.meta(0).is_constant());
        assert_eq!(r.codes(0), &[1, 0]);
        assert_eq!(r.value(0, 0), &Value::Int(9_007_199_254_740_993));
    }

    #[test]
    fn string_columns_keep_tokens_as_written() {
        // A mixed column is typed Str: numbers keep their text.
        let r = read_csv_str("a\n007\n7\nx\n", &CsvOptions::default()).unwrap();
        assert_eq!(r.meta(0).data_type, DataType::Str);
        assert_eq!(r.meta(0).distinct, 3);
        assert_eq!(r.value(0, 0), &Value::Str("007".into()));
        let lex = CsvOptions {
            typing: TypingMode::ForceLexicographic,
            ..CsvOptions::default()
        };
        let r = read_csv_str("a\n1.50\n1.5\n+5\n", &lex).unwrap();
        assert_eq!(r.meta(0).distinct, 3);
        assert_eq!(r.value(0, 0), &Value::Str("1.50".into()));
        assert_eq!(r.value(2, 0), &Value::Str("+5".into()));
        // Under Infer the same tokens are numbers, and equal ones merge.
        let r = read_csv_str("a\n1.50\n1.5\n+5\n", &CsvOptions::default()).unwrap();
        assert_eq!(r.meta(0).distinct, 2);
    }

    #[test]
    fn equal_numbers_keep_the_first_rows_value() {
        let r = read_csv_str("a\n2.0\n2\n2.5\n", &CsvOptions::default()).unwrap();
        assert_eq!(r.codes(0), &[0, 0, 1]);
        assert!(matches!(r.value(1, 0), Value::Float(_)));
        let r = read_csv_str("a\n2\n2.0\n2.5\n", &CsvOptions::default()).unwrap();
        assert!(matches!(r.value(1, 0), Value::Int(2)));
    }

    #[test]
    fn multibyte_separator() {
        let opts = CsvOptions {
            separator: '→',
            ..CsvOptions::default()
        };
        let r = read_csv_str("a→b\n\"x→y\"→é\n", &opts).unwrap();
        assert_eq!(r.column_names(), vec!["a", "b"]);
        assert_eq!(r.value(0, 0), &Value::Str("x→y".into()));
        assert_eq!(r.value(0, 1), &Value::Str("é".into()));
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(read_csv_str("a\n\"oops\n", &CsvOptions::default()).is_err());
    }

    #[test]
    fn empty_input_empty_relation() {
        let r = read_csv_str("", &CsvOptions::default()).unwrap();
        assert_eq!(r.num_columns(), 0);
    }

    #[test]
    fn alternative_separator() {
        let opts = CsvOptions {
            separator: ';',
            ..CsvOptions::default()
        };
        let r = read_csv_str("a;b\n1;2\n", &opts).unwrap();
        assert_eq!(r.value(0, 1), &Value::Int(2));
    }

    #[test]
    fn write_then_read_round_trip() {
        let src = "a,b\n1,x\n2,\"y,z\"\n";
        let r = read_csv_str(src, &CsvOptions::default()).unwrap();
        let text = write_csv(&r);
        let r2 = read_csv_str(&text, &CsvOptions::default()).unwrap();
        assert_eq!(r2.num_rows(), r.num_rows());
        for row in 0..r.num_rows() {
            for col in 0..r.num_columns() {
                assert_eq!(r.value(row, col), r2.value(row, col));
            }
        }
    }

    #[test]
    fn null_round_trips_as_empty() {
        let r = read_csv_str("a\n?\n", &CsvOptions::default()).unwrap();
        let text = write_csv(&r);
        assert_eq!(text, "a\n\n");
        let r2 = read_csv_str(&text, &CsvOptions::default()).unwrap();
        assert_eq!(r2.value(0, 0), &Value::Null);
    }
}
