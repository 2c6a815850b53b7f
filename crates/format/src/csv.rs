//! CSV reading and writing.
//!
//! This is the primary storage format of the paper's experiments ("all
//! experiments use the same 10 GB TPC-H dataset in CSV format", §III) and
//! the *only* format S3 Select responses ever use, even for columnar
//! inputs (§IX). The dialect is RFC-4180-ish: comma separator, `"`
//! quoting with `""` escapes, `\n` record terminator, one header row.
//!
//! Readers yield each record's **byte range** alongside its values — the
//! index tables of paper §IV-A store `first_byte_offset`/`last_byte_offset`
//! per row and fetch rows back with ranged GETs, so offsets must be exact.

use pushdown_common::{DataType, Error, Result, Row, Schema, Value};
use std::borrow::Cow;

/// Split one CSV record (without terminator) into fields, appending them
/// to `out` (cleared first). Works on bytes: every field borrows from
/// `line`, and only a quoted field containing `""` escapes allocates.
/// Malformed quoting is an error.
fn split_fields<'a>(line: &'a str, out: &mut Vec<Cow<'a, str>>) -> Result<()> {
    out.clear();
    let b = line.as_bytes();
    let mut i = 0;
    loop {
        if b.get(i) != Some(&b'"') {
            // Unquoted field: everything up to the next comma.
            match b[i..].iter().position(|&c| c == b',') {
                Some(off) => {
                    out.push(Cow::Borrowed(&line[i..i + off]));
                    i += off + 1;
                    continue;
                }
                None => {
                    out.push(Cow::Borrowed(&line[i..]));
                    return Ok(());
                }
            }
        }
        // Quoted field: `""` is an escaped quote, a lone `"` closes it.
        i += 1;
        let start = i;
        let mut unescaped: Option<String> = None;
        loop {
            let Some(off) = b[i..].iter().position(|&c| c == b'"') else {
                return Err(Error::Corrupt("unterminated quoted CSV field".into()));
            };
            let q = i + off;
            if b.get(q + 1) == Some(&b'"') {
                let s = unescaped.get_or_insert_with(String::new);
                s.push_str(&line[i..=q]);
                i = q + 2;
                continue;
            }
            out.push(match unescaped {
                Some(mut s) => {
                    s.push_str(&line[i..q]);
                    Cow::Owned(s)
                }
                None => Cow::Borrowed(&line[start..q]),
            });
            i = q + 1;
            break;
        }
        match b.get(i) {
            None => return Ok(()),
            Some(b',') => i += 1,
            Some(_) => {
                let found = line[i..].chars().next().unwrap_or_default();
                return Err(Error::Corrupt(format!(
                    "expected `,` after quoted field, found `{found}`"
                )));
            }
        }
    }
}

/// Split one CSV record (without terminator) into owned string fields.
/// Handles quoting; returns an error for malformed quoting.
pub fn split_line(line: &str) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    split_fields(line, &mut fields)?;
    Ok(fields.into_iter().map(Cow::into_owned).collect())
}

/// Decode one record's raw bytes (as a ranged GET returns them; trailing
/// `\r`/`\n` are ignored) into a row of `schema`.
pub fn decode_record(bytes: &[u8], schema: &Schema) -> Result<Row> {
    let line =
        std::str::from_utf8(bytes).map_err(|_| Error::Corrupt("non-UTF8 CSV record".into()))?;
    let mut fields = Vec::new();
    split_fields(line.trim_end_matches(['\n', '\r']), &mut fields)?;
    let mut values = Vec::with_capacity(fields.len());
    decode_fields(&fields, schema, None, &mut values)?;
    Ok(Row::new(values))
}

/// Type the split fields of one record into `values` (cleared first).
/// With a projection, a column whose flag is `false` becomes NULL without
/// being materialized, yet is still validated: Int/Float/Date/Bool text
/// must parse (which allocates nothing), and a string is always valid.
fn decode_fields(
    fields: &[Cow<'_, str>],
    schema: &Schema,
    projection: Option<&[bool]>,
    values: &mut Vec<Value>,
) -> Result<()> {
    if fields.len() != schema.len() {
        return Err(Error::Corrupt(format!(
            "CSV record has {} fields, schema expects {}",
            fields.len(),
            schema.len()
        )));
    }
    values.clear();
    for (i, f) in fields.iter().enumerate() {
        let dt = schema.dtype_of(i);
        let keep = projection.is_none_or(|p| p[i]);
        values.push(if keep {
            Value::parse_typed(f, dt)?
        } else {
            if dt != DataType::Str {
                Value::parse_typed(f, dt)?;
            }
            Value::Null
        });
    }
    Ok(())
}

/// A decoded CSV record: typed values plus the byte range (inclusive
/// first/last, matching HTTP range semantics) it occupied in the object,
/// *excluding* the record terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvRecord {
    pub row: Row,
    pub first_byte: u64,
    pub last_byte: u64,
}

/// Streaming CSV reader over an in-memory object.
pub struct CsvReader<'a> {
    data: &'a [u8],
    schema: Schema,
    pos: usize,
    /// Whether the first record is a header to skip.
    header: bool,
    started: bool,
    /// Split fields of the current record, reused across records.
    fields: Vec<Cow<'a, str>>,
}

impl<'a> CsvReader<'a> {
    /// Reader for an object whose first line is a header row (the layout
    /// the TPC-H loader writes).
    pub fn with_header(data: &'a [u8], schema: Schema) -> Self {
        CsvReader {
            data,
            schema,
            pos: 0,
            header: true,
            started: false,
            fields: Vec::new(),
        }
    }

    /// Reader for headerless data (S3 Select responses).
    pub fn without_header(data: &'a [u8], schema: Schema) -> Self {
        CsvReader {
            header: false,
            ..CsvReader::with_header(data, schema)
        }
    }

    /// Parse the header line of an object into column names (types must
    /// come from elsewhere — CSV is untyped).
    pub fn read_header(data: &[u8]) -> Result<Vec<String>> {
        let end = data.iter().position(|&c| c == b'\n').unwrap_or(data.len());
        let line = std::str::from_utf8(&data[..end])
            .map_err(|_| Error::Corrupt("non-UTF8 CSV header".into()))?;
        split_line(line.trim_end_matches('\r'))
    }

    /// Find the end of the record starting at `from`: the first newline
    /// *outside* quotes (the writer quotes fields containing newlines).
    fn record_end(rest: &[u8]) -> usize {
        let mut in_quotes = false;
        for (i, &c) in rest.iter().enumerate() {
            match c {
                b'"' => in_quotes = !in_quotes,
                b'\n' if !in_quotes => return i,
                _ => {}
            }
        }
        rest.len()
    }

    /// The next non-blank record: its start offset and its raw bytes
    /// (without terminator or trailing `\r`).
    fn next_line(&mut self) -> Option<(usize, &'a [u8])> {
        while self.pos < self.data.len() {
            let start = self.pos;
            let rest = &self.data[start..];
            let end_rel = Self::record_end(rest);
            self.pos = start + end_rel + 1; // past the newline (or EOF)
            let mut line = &rest[..end_rel];
            if line.ends_with(b"\r") {
                line = &line[..line.len() - 1];
            }
            if !line.is_empty() {
                return Some((start, line)); // blank lines are skipped
            }
        }
        None
    }

    /// Decode the next record into `values` (cleared first) and return
    /// its byte range (inclusive first/last, excluding the terminator).
    /// With a `projection` (one flag per schema column), unflagged
    /// columns are left NULL but still validated: Int/Float/Date/Bool
    /// text must parse, so a bad value fails the record either way.
    /// Reusing `values` across calls makes the scan allocation-free for
    /// every column but the materialized strings.
    pub fn read_into(
        &mut self,
        values: &mut Vec<Value>,
        projection: Option<&[bool]>,
    ) -> Option<Result<(u64, u64)>> {
        if !self.started {
            self.started = true;
            if self.header {
                self.next_line()?;
            }
        }
        let (start, bytes) = self.next_line()?;
        let Ok(line) = std::str::from_utf8(bytes) else {
            return Some(Err(Error::Corrupt(format!(
                "non-UTF8 CSV record (record starts at byte {start})"
            ))));
        };
        let decoded = split_fields(line, &mut self.fields)
            .and_then(|()| decode_fields(&self.fields, &self.schema, projection, values))
            .map_err(|e| match e {
                Error::Corrupt(msg) => {
                    Error::Corrupt(format!("{msg} (record starts at byte {start})"))
                }
                other => other,
            });
        Some(decoded.map(|()| (start as u64, (start + line.len()).saturating_sub(1) as u64)))
    }
}

impl Iterator for CsvReader<'_> {
    type Item = Result<CsvRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut values = Vec::with_capacity(self.schema.len());
        let range = self.read_into(&mut values, None)?;
        Some(range.map(|(first_byte, last_byte)| CsvRecord {
            row: Row::new(values),
            first_byte,
            last_byte,
        }))
    }
}

/// Serialize rows to CSV bytes.
pub struct CsvWriter {
    buf: String,
}

impl CsvWriter {
    /// Start a document with a header row naming the schema's columns.
    pub fn with_header(schema: &Schema) -> Self {
        let mut buf = String::new();
        for (i, f) in schema.fields().iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            buf.push_str(&f.name);
        }
        buf.push('\n');
        CsvWriter { buf }
    }

    /// Start a headerless document (the shape of S3 Select responses).
    pub fn headerless() -> Self {
        CsvWriter { buf: String::new() }
    }

    /// Append one row; returns the byte range (first, last inclusive,
    /// excluding the terminator) it occupies — the index builder records
    /// these.
    pub fn write_row(&mut self, row: &Row) -> (u64, u64) {
        self.write_values(row.values())
    }

    /// Append one record given as its values in column order, encoded
    /// straight into the document buffer; returns its byte range like
    /// [`CsvWriter::write_row`].
    pub fn write_values<'v>(&mut self, values: impl IntoIterator<Item = &'v Value>) -> (u64, u64) {
        let first = self.buf.len() as u64;
        pushdown_common::row::write_csv_values(values, &mut self.buf);
        let last = (self.buf.len() as u64).saturating_sub(1);
        self.buf.push('\n');
        (first, last)
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf.into_bytes()
    }
}

/// Convenience: encode a whole table (with header) in one call.
pub fn encode_csv(schema: &Schema, rows: &[Row]) -> Vec<u8> {
    let mut w = CsvWriter::with_header(schema);
    for r in rows {
        w.write_row(r);
    }
    w.finish()
}

/// Convenience: decode a whole table (with header) in one call.
pub fn decode_csv(data: &[u8], schema: &Schema) -> Result<Vec<Row>> {
    CsvReader::with_header(data, schema.clone())
        .map(|r| r.map(|rec| rec.row))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushdown_common::DataType;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("bal", DataType::Float),
        ])
    }

    #[test]
    fn round_trip_simple() {
        let rows = vec![
            Row::new(vec![
                Value::Int(1),
                Value::Str("alice".into()),
                Value::Float(10.5),
            ]),
            Row::new(vec![
                Value::Int(2),
                Value::Str("bob".into()),
                Value::Float(-3.25),
            ]),
        ];
        let bytes = encode_csv(&schema(), &rows);
        assert!(bytes.starts_with(b"id,name,bal\n"));
        let back = decode_csv(&bytes, &schema()).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn round_trip_quoting_and_nulls() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Str("a,b".into()), Value::Null]),
            Row::new(vec![
                Value::Int(2),
                Value::Str("say \"hi\"".into()),
                Value::Float(0.0),
            ]),
            Row::new(vec![
                Value::Null,
                Value::Str(String::new()),
                Value::Float(1.0),
            ]),
        ];
        let bytes = encode_csv(&schema(), &rows);
        let back = decode_csv(&bytes, &schema()).unwrap();
        // Empty strings and NULL share the empty-field encoding, so the
        // empty string decodes as NULL (documented CSV lossiness).
        let mut expect = rows.clone();
        expect[2].0[1] = Value::Null;
        assert_eq!(back, expect);
    }

    #[test]
    fn byte_ranges_support_ranged_gets() {
        // The crux of the §IV-A index design: reading [first, last] back
        // out of the raw object must reproduce exactly the record text.
        let rows: Vec<Row> = (0..20)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::Str(format!("name-{i}")),
                    Value::Float(i as f64 * 1.5),
                ])
            })
            .collect();
        let bytes = encode_csv(&schema(), &rows);
        let records: Vec<CsvRecord> = CsvReader::with_header(&bytes, schema())
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(records.len(), 20);
        for rec in &records {
            let slice = &bytes[rec.first_byte as usize..=rec.last_byte as usize];
            let line = std::str::from_utf8(slice).unwrap();
            let reparsed = split_line(line).unwrap();
            assert_eq!(reparsed.len(), 3);
            assert_eq!(reparsed[0], rec.row[0].to_csv_field());
        }
    }

    #[test]
    fn header_skipped_only_with_header_reader() {
        let bytes = b"id,name,bal\n1,x,2.0\n";
        let with = decode_csv(bytes, &schema()).unwrap();
        assert_eq!(with.len(), 1);
        let without: Vec<Row> = CsvReader::without_header(b"1,x,2.0\n", schema())
            .map(|r| r.map(|rec| rec.row))
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(without, with);
    }

    #[test]
    fn read_header_names() {
        assert_eq!(
            CsvReader::read_header(b"id,name,bal\n1,2,3\n").unwrap(),
            vec!["id", "name", "bal"]
        );
    }

    #[test]
    fn crlf_and_blank_lines_tolerated() {
        let bytes = b"id,name,bal\r\n1,x,2.0\r\n\n2,y,3.0\n";
        let rows = decode_csv(bytes, &schema()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][0], Value::Int(2));
    }

    #[test]
    fn field_count_mismatch_is_corrupt() {
        let err = decode_csv(b"id,name,bal\n1,x\n", &schema()).unwrap_err();
        assert_eq!(err.code(), "Corrupt");
    }

    #[test]
    fn bad_typed_field_is_corrupt() {
        let err = decode_csv(b"id,name,bal\nnotanint,x,2.0\n", &schema()).unwrap_err();
        assert_eq!(err.code(), "Corrupt");
    }

    #[test]
    fn malformed_quotes_rejected() {
        assert!(split_line("\"unterminated").is_err());
        assert!(split_line("\"a\"b").is_err());
        assert_eq!(split_line("\"a\",b").unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn replacement_character_is_an_ordinary_record() {
        // A record whose only field is U+FFFD is valid UTF-8 text.
        let schema = Schema::from_pairs(&[("s", DataType::Str)]);
        let rows = decode_csv(b"s\n\xEF\xBF\xBD\n", &schema).unwrap();
        assert_eq!(rows, vec![Row::new(vec![Value::Str("\u{FFFD}".into())])]);
        // Bytes that are not UTF-8 are the corrupt case.
        let err = decode_csv(b"s\nok\n\xFF\n", &schema).unwrap_err();
        assert_eq!(err.code(), "Corrupt");
        assert!(err.to_string().contains("non-UTF8"), "{err}");
    }

    #[test]
    fn split_fields_borrows_all_but_escaped_fields() {
        let mut fields = Vec::new();
        split_fields("plain,\"quoted, comma\",\"say \"\"hi\"\"\",", &mut fields).unwrap();
        assert_eq!(fields, vec!["plain", "quoted, comma", "say \"hi\"", ""]);
        let borrowed: Vec<bool> = fields
            .iter()
            .map(|f| matches!(f, Cow::Borrowed(_)))
            .collect();
        assert_eq!(borrowed, vec![true, true, false, true]);
    }

    #[test]
    fn projection_validates_unreferenced_columns() {
        let schema = Schema::from_pairs(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("d", DataType::Date),
            ("b", DataType::Bool),
            ("s", DataType::Str),
        ]);
        let only_s = [false, false, false, false, true];
        let decode = |data: &[u8]| {
            let mut reader = CsvReader::without_header(data, schema.clone());
            let mut values = Vec::new();
            reader
                .read_into(&mut values, Some(&only_s))
                .unwrap()
                .map(|_| values)
        };
        assert_eq!(
            decode(b"1,2.5,1995-01-01,true,x\n").unwrap(),
            vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Str("x".into())
            ]
        );
        for bad in [
            "x,2.5,1995-01-01,true,x",
            "1,x,1995-01-01,true,x",
            "1,2.5,1995-02-30,true,x",
            "1,2.5,1995-01-01,yes,x",
        ] {
            assert!(decode(bad.as_bytes()).is_err(), "{bad}");
        }
    }

    #[test]
    fn split_line_edge_cases() {
        assert_eq!(split_line("").unwrap(), vec![""]);
        assert_eq!(split_line("a,").unwrap(), vec!["a", ""]);
        assert_eq!(split_line(",a").unwrap(), vec!["", "a"]);
        assert_eq!(split_line(",,").unwrap(), vec!["", "", ""]);
        assert_eq!(split_line("\"\"").unwrap(), vec![""]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The char-at-a-time splitter the byte-level [`split_fields`]
    /// replaced, kept as a test oracle.
    fn split_line_chars(line: &str) -> Result<Vec<String>> {
        let mut fields = Vec::new();
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        loop {
            if i >= chars.len() {
                fields.push(String::new());
                break;
            }
            if chars[i] == '"' {
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= chars.len() {
                        return Err(Error::Corrupt("unterminated".into()));
                    }
                    if chars[i] == '"' {
                        if i + 1 < chars.len() && chars[i + 1] == '"' {
                            s.push('"');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        s.push(chars[i]);
                        i += 1;
                    }
                }
                fields.push(s);
                if i < chars.len() {
                    if chars[i] != ',' {
                        return Err(Error::Corrupt("junk after quote".into()));
                    }
                    i += 1;
                    continue;
                }
                break;
            }
            let mut s = String::new();
            while i < chars.len() && chars[i] != ',' {
                s.push(chars[i]);
                i += 1;
            }
            fields.push(s);
            if i < chars.len() {
                i += 1;
                continue;
            }
            break;
        }
        Ok(fields)
    }

    /// The reader as it stood before the byte-level rewrite (record
    /// boundaries, blank-line and header skipping, char splitting, typed
    /// parsing), kept as a test oracle. Errors collapse to `()`.
    fn oracle_records(
        data: &[u8],
        schema: &Schema,
        header: bool,
    ) -> Vec<std::result::Result<CsvRecord, ()>> {
        let mut out = Vec::new();
        let mut pos = 0;
        let mut skip_header = header;
        while pos < data.len() {
            let start = pos;
            let rest = &data[start..];
            let mut in_quotes = false;
            let mut end = rest.len();
            for (i, &c) in rest.iter().enumerate() {
                match c {
                    b'"' => in_quotes = !in_quotes,
                    b'\n' if !in_quotes => {
                        end = i;
                        break;
                    }
                    _ => {}
                }
            }
            pos = start + end + 1;
            let mut line = &rest[..end];
            if line.ends_with(b"\r") {
                line = &line[..line.len() - 1];
            }
            if line.is_empty() {
                continue;
            }
            if std::mem::take(&mut skip_header) {
                continue;
            }
            let record = (|| {
                let line = std::str::from_utf8(line).map_err(|_| ())?;
                let fields = split_line_chars(line).map_err(|_| ())?;
                if fields.len() != schema.len() {
                    return Err(());
                }
                let values = fields
                    .iter()
                    .enumerate()
                    .map(|(i, f)| Value::parse_typed(f, schema.dtype_of(i)).map_err(|_| ()))
                    .collect::<std::result::Result<Vec<_>, ()>>()?;
                Ok(CsvRecord {
                    row: Row::new(values),
                    first_byte: start as u64,
                    last_byte: (start + line.len()).saturating_sub(1) as u64,
                })
            })();
            out.push(record);
        }
        out
    }

    /// Byte fragments that CSV records are assembled from: typed text,
    /// separators, quotes and `""` escapes, every line-break form,
    /// non-ASCII text (U+FFFD included) and bytes that are not UTF-8.
    const PIECES: &[&[u8]] = &[
        b"a",
        b"7",
        b"-3",
        b"2.5",
        b"1995-03-15",
        b"true",
        b",",
        b",",
        b",",
        b"\"",
        b"\"\"",
        b"\"x,y\"",
        b"\n",
        b"\n",
        b"\r\n",
        b"\r",
        b"\xC3\xA9",
        b"\xEF\xBF\xBD",
        b"\xFF",
        b" ",
    ];

    fn arb_csv_bytes() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0..PIECES.len(), 0..40)
            .prop_map(|ix| ix.into_iter().flat_map(|i| PIECES[i].to_vec()).collect())
    }

    /// Schemas for the random records: all strings (most records decode),
    /// mixed types (typed parse errors), one column and two columns.
    fn oracle_schema(pick: usize) -> Schema {
        match pick {
            0 => Schema::from_pairs(&[
                ("a", DataType::Str),
                ("b", DataType::Str),
                ("c", DataType::Str),
            ]),
            1 => Schema::from_pairs(&[
                ("a", DataType::Int),
                ("b", DataType::Str),
                ("c", DataType::Date),
            ]),
            2 => Schema::from_pairs(&[("a", DataType::Str)]),
            _ => Schema::from_pairs(&[("a", DataType::Bool), ("b", DataType::Float)]),
        }
    }

    fn arb_value(dt: DataType) -> BoxedStrategy<Value> {
        match dt {
            DataType::Int => prop_oneof![
                3 => any::<i64>().prop_map(Value::Int),
                1 => Just(Value::Null)
            ]
            .boxed(),
            DataType::Float => prop_oneof![
                3 => (-1e12f64..1e12).prop_map(Value::Float),
                1 => Just(Value::Null)
            ]
            .boxed(),
            DataType::Str => prop_oneof![
                // Printable ASCII incl. separators/quotes to stress quoting.
                3 => "[ -~]{0,30}".prop_map(Value::Str),
                1 => Just(Value::Null)
            ]
            .boxed(),
            DataType::Date => (0i32..20000).prop_map(Value::Date).boxed(),
            DataType::Bool => any::<bool>().prop_map(Value::Bool).boxed(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The byte-level reader yields exactly the oracle's records:
        /// rows, byte ranges, and Ok-vs-Err, record by record.
        #[test]
        fn byte_reader_matches_char_oracle(
            data in arb_csv_bytes(),
            pick in 0usize..4,
            header in any::<bool>(),
        ) {
            let schema = oracle_schema(pick);
            let reader = if header {
                CsvReader::with_header(&data, schema.clone())
            } else {
                CsvReader::without_header(&data, schema.clone())
            };
            let got: Vec<_> = reader.map(|r| r.map_err(|_| ())).collect();
            prop_assert_eq!(got, oracle_records(&data, &schema, header));
        }

        /// `split_line` agrees with the char splitter on fields and on
        /// Ok-vs-Err for arbitrary (UTF-8) record text.
        #[test]
        fn split_line_matches_char_oracle(line in "[ab1,\"\ré€ ]{0,24}") {
            prop_assert_eq!(split_line(&line).ok(), split_line_chars(&line).ok());
        }
    }

    proptest! {
        /// Projection-aware decoding: referenced columns equal a full
        /// decode, unreferenced ones are NULL, byte ranges are unchanged.
        #[test]
        fn projected_decode_equals_full_decode(
            rows in proptest::collection::vec(
                (
                    arb_value(DataType::Int),
                    arb_value(DataType::Str),
                    arb_value(DataType::Float),
                    arb_value(DataType::Date),
                    arb_value(DataType::Bool),
                ),
                0..30,
            ),
            keep in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        ) {
            let schema = Schema::from_pairs(&[
                ("i", DataType::Int),
                ("s", DataType::Str),
                ("f", DataType::Float),
                ("d", DataType::Date),
                ("b", DataType::Bool),
            ]);
            let rows: Vec<Row> = rows
                .into_iter()
                .map(|(i, s, f, d, b)| Row::new(vec![i, s, f, d, b]))
                .collect();
            let projection = [keep.0, keep.1, keep.2, keep.3, keep.4];
            let bytes = encode_csv(&schema, &rows);
            let full: Vec<CsvRecord> = CsvReader::with_header(&bytes, schema.clone())
                .collect::<Result<_>>()
                .unwrap();
            let mut reader = CsvReader::with_header(&bytes, schema.clone());
            let mut values = Vec::new();
            for rec in &full {
                let range = reader.read_into(&mut values, Some(&projection)).unwrap().unwrap();
                prop_assert_eq!(range, (rec.first_byte, rec.last_byte));
                for (c, v) in values.iter().enumerate() {
                    let want = if projection[c] { rec.row[c].clone() } else { Value::Null };
                    prop_assert_eq!(v.clone(), want);
                }
            }
            prop_assert!(reader.read_into(&mut values, Some(&projection)).is_none());
        }

        /// A malformed Int/Float/Date/Bool field fails the record even
        /// when its column is not referenced.
        #[test]
        fn bad_unreferenced_value_is_an_error(
            rows in 1usize..20,
            bad_row in 0usize..20,
            bad_col in 0usize..4,
            junk in "[xz.:-]{1,4}",
        ) {
            let schema = Schema::from_pairs(&[
                ("i", DataType::Int),
                ("f", DataType::Float),
                ("d", DataType::Date),
                ("b", DataType::Bool),
                ("s", DataType::Str),
            ]);
            // `junk` parses as none of the four typed columns.
            assert_unparsable(&junk, schema.dtype_of(bad_col));
            let bad_row = bad_row % rows;
            let mut text = String::from("i,f,d,b,s\n");
            for r in 0..rows {
                let mut fields = ["7", "2.5", "1995-03-15", "true", "s"];
                if r == bad_row {
                    fields[bad_col] = &junk;
                }
                text.push_str(&fields.join(","));
                text.push('\n');
            }
            let only_s = [false, false, false, false, true];
            let mut reader = CsvReader::with_header(text.as_bytes(), schema.clone());
            let mut values = Vec::new();
            let mut outcomes = Vec::new();
            while let Some(r) = reader.read_into(&mut values, Some(&only_s)) {
                outcomes.push(r.is_ok());
            }
            let mut want = vec![true; rows];
            want[bad_row] = false;
            prop_assert_eq!(outcomes, want);
        }
    }

    /// `junk` must not happen to be valid text for `dt` (the generator
    /// cannot produce a valid Int/Float/Date/Bool, but check rather than
    /// assume).
    fn assert_unparsable(junk: &str, dt: DataType) {
        assert!(
            Value::parse_typed(junk, dt).is_err(),
            "{junk:?} parses as {dt}"
        );
    }

    proptest! {
        #[test]
        fn csv_round_trips_arbitrary_tables(
            rows in proptest::collection::vec(
                (arb_value(DataType::Int), arb_value(DataType::Str), arb_value(DataType::Float)),
                0..50,
            )
        ) {
            let schema = Schema::from_pairs(&[
                ("a", DataType::Int),
                ("b", DataType::Str),
                ("c", DataType::Float),
            ]);
            // NULL strings and empty strings both encode as the empty CSV
            // field; normalize empties to NULL for the comparison.
            let rows: Vec<Row> = rows
                .into_iter()
                .map(|(a, b, c)| {
                    let b = match b {
                        Value::Str(s) if s.is_empty() => Value::Null,
                        other => other,
                    };
                    Row::new(vec![a, b, c])
                })
                .collect();
            let bytes = encode_csv(&schema, &rows);
            let back = decode_csv(&bytes, &schema).unwrap();
            prop_assert_eq!(back, rows);
        }

        #[test]
        fn byte_ranges_are_exact(
            rows in proptest::collection::vec(
                (any::<i64>(), "[ -~]{0,20}"),
                1..30,
            )
        ) {
            let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)]);
            let rows: Vec<Row> = rows
                .into_iter()
                .map(|(a, b)| Row::new(vec![Value::Int(a), Value::Str(b)]))
                .collect();
            let bytes = encode_csv(&schema, &rows);
            for rec in CsvReader::with_header(&bytes, schema.clone()) {
                let rec = rec.unwrap();
                let slice = &bytes[rec.first_byte as usize..=rec.last_byte as usize];
                let line = std::str::from_utf8(slice).unwrap();
                prop_assert!(!line.contains('\n'));
                let fields = split_line(line).unwrap();
                prop_assert_eq!(fields.len(), 2);
            }
        }
    }
}
