//! Database snapshots and batched state transfer.
//!
//! ShadowDB's recovery sends "a snapshot of its entire database" to
//! replicas that cannot catch up from the transaction cache. "State
//! transfer consists in selecting the rows of each table, sending the rows
//! in batches, and inserting them in the corresponding table at the
//! destination replica" with batches "close to 50 kilobytes in serialized
//! form" (Sec. IV-B). This module implements exactly that pipeline,
//! including a binary row codec whose cost is proportional to the column
//! count — the property that makes TPC-C state transfer disproportionately
//! expensive in Fig. 10(b).

use crate::schema::{Column, DataType, TableSchema};
use crate::table::Table;
use crate::value::{Row, SqlValue};
use crate::{Result, SqlError};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// A full-table dump within a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct TableDump {
    /// The table's schema.
    pub schema: TableSchema,
    /// All rows.
    pub rows: Vec<Row>,
}

/// A consistent full-database snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    tables: Vec<TableDump>,
}

impl Snapshot {
    /// Builds a snapshot from tables.
    pub fn from_tables<'a, I: Iterator<Item = &'a Table>>(tables: I) -> Snapshot {
        Snapshot {
            tables: tables
                .map(|t| TableDump {
                    schema: t.schema().clone(),
                    rows: t.iter().map(|(_, r)| r.clone()).collect(),
                })
                .collect(),
        }
    }

    /// The dumped tables.
    pub fn tables(&self) -> &[TableDump] {
        &self.tables
    }

    /// Total number of rows across all tables.
    pub fn row_count(&self) -> usize {
        self.tables.iter().map(|t| t.rows.len()).sum()
    }

    /// Splits the snapshot into wire batches of at most `batch_bytes`
    /// serialized bytes each (plus one row — a batch always makes
    /// progress). Schemas travel in the first batch that touches their
    /// table.
    pub fn to_batches(&self, batch_bytes: usize) -> Vec<RowBatch> {
        let mut batches = Vec::new();
        for dump in &self.tables {
            let mut current = RowBatch {
                table: dump.schema.name.clone(),
                schema: Some(dump.schema.clone()),
                rows: Vec::new(),
            };
            let mut size = 0usize;
            for row in &dump.rows {
                let row_size = encoded_row_len(row);
                if size > 0 && size + row_size > batch_bytes {
                    batches.push(current);
                    current = RowBatch {
                        table: dump.schema.name.clone(),
                        schema: None,
                        rows: Vec::new(),
                    };
                    size = 0;
                }
                current.rows.push(row.clone());
                size += row_size;
            }
            batches.push(current);
        }
        batches
    }

    /// Serializes the whole snapshot into one length-prefixed blob —
    /// the durable on-disk form (WAL snapshots), as opposed to
    /// [`Snapshot::to_batches`]'s wire form for streaming transfer.
    pub fn to_bytes(&self) -> Bytes {
        durable_bytes(self.tables.iter().map(|d| (&d.schema, d.rows.iter())))
    }

    /// Reassembles a snapshot from a [`Snapshot::to_bytes`] blob.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input (a torn snapshot write is
    /// caught by the WAL's checksum before this runs, but the decode is
    /// total regardless).
    pub fn from_bytes(mut blob: Bytes) -> Result<Snapshot> {
        let mut batches = Vec::new();
        while !blob.is_empty() {
            let len = get_u32(&mut blob)? as usize;
            if blob.remaining() < len {
                return Err(SqlError::Parse("truncated snapshot blob".into()));
            }
            batches.push(RowBatch::decode(blob.split_to(len))?);
        }
        Snapshot::from_batches(&batches)
    }

    /// Reassembles a snapshot from batches (in transfer order).
    ///
    /// # Errors
    ///
    /// Fails if a batch references a table whose schema has not arrived.
    pub fn from_batches(batches: &[RowBatch]) -> Result<Snapshot> {
        let mut snapshot = Snapshot::default();
        for b in batches {
            if let Some(schema) = &b.schema {
                snapshot.tables.push(TableDump {
                    schema: schema.clone(),
                    rows: Vec::new(),
                });
            }
            let dump = snapshot
                .tables
                .iter_mut()
                .find(|t| t.schema.name == b.table)
                .ok_or_else(|| SqlError::Unknown(format!("batch for unknown table {}", b.table)))?;
            dump.rows.extend(b.rows.iter().cloned());
        }
        Ok(snapshot)
    }
}

/// One state-transfer batch: rows of a single table, optionally prefixed by
/// its schema.
#[derive(Clone, Debug, PartialEq)]
pub struct RowBatch {
    /// The destination table.
    pub table: String,
    /// The table schema, present in the table's first batch.
    pub schema: Option<TableSchema>,
    /// The rows.
    pub rows: Vec<Row>,
}

/// The durable blob of [`Snapshot::to_bytes`], encoded straight from
/// `(schema, rows)` pairs without copying a row: one length-prefixed
/// whole-table batch per table, in the given order.
pub(crate) fn durable_bytes<'a, R>(tables: impl Iterator<Item = (&'a TableSchema, R)>) -> Bytes
where
    R: ExactSizeIterator<Item = &'a Row>,
{
    let mut buf = BytesMut::new();
    for (schema, rows) in tables {
        let at = buf.len();
        buf.put_u32_le(0);
        encode_batch(&mut buf, &schema.name, Some(schema), rows);
        let len = (buf.len() - at - 4) as u32;
        buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
    buf.freeze()
}

/// Appends one batch's wire form to `buf`.
fn encode_batch<'a>(
    buf: &mut BytesMut,
    table: &str,
    schema: Option<&TableSchema>,
    rows: impl ExactSizeIterator<Item = &'a Row>,
) {
    put_str(buf, table);
    match schema {
        Some(s) => {
            buf.put_u8(1);
            encode_schema(s, buf);
        }
        None => buf.put_u8(0),
    }
    buf.put_u32_le(rows.len() as u32);
    for row in rows {
        buf.put_u16_le(row.len() as u16);
        for v in row {
            encode_value(v, buf);
        }
    }
}

impl RowBatch {
    /// Serializes the batch to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        encode_batch(
            &mut buf,
            &self.table,
            self.schema.as_ref(),
            self.rows.iter(),
        );
        buf.freeze()
    }

    /// Deserializes a batch.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input.
    pub fn decode(mut buf: Bytes) -> Result<RowBatch> {
        let table = get_str(&mut buf)?;
        let schema = if get_u8(&mut buf)? == 1 {
            Some(decode_schema(&mut buf)?)
        } else {
            None
        };
        let n = get_u32(&mut buf)? as usize;
        let mut rows = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let cols = get_u16(&mut buf)? as usize;
            let mut row = Vec::with_capacity(cols);
            for _ in 0..cols {
                row.push(decode_value(&mut buf)?);
            }
            rows.push(row);
        }
        Ok(RowBatch {
            table,
            schema,
            rows,
        })
    }

    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.encode().len()
    }

    /// Total column values in the batch (serialization-cost driver).
    pub fn column_values(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

/// The serialized size of one row.
pub fn encoded_row_len(row: &Row) -> usize {
    2 + row.iter().map(|v| 1 + v.byte_size().max(8)).sum::<usize>()
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_u8(buf: &mut Bytes) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(SqlError::Parse("truncated batch".into()));
    }
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut Bytes) -> Result<u16> {
    if buf.remaining() < 2 {
        return Err(SqlError::Parse("truncated batch".into()));
    }
    Ok(buf.get_u16_le())
}

fn get_u32(buf: &mut Bytes) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(SqlError::Parse("truncated batch".into()));
    }
    Ok(buf.get_u32_le())
}

fn get_str(buf: &mut Bytes) -> Result<String> {
    let len = get_u16(buf)? as usize;
    if buf.remaining() < len {
        return Err(SqlError::Parse("truncated batch".into()));
    }
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| SqlError::Parse("bad utf-8".into()))
}

fn encode_value(v: &SqlValue, buf: &mut BytesMut) {
    match v {
        SqlValue::Null => buf.put_u8(0),
        SqlValue::Int(i) => {
            buf.put_u8(1);
            buf.put_i64_le(*i);
        }
        SqlValue::Real(r) => {
            buf.put_u8(2);
            buf.put_f64_le(*r);
        }
        SqlValue::Text(s) => {
            buf.put_u8(3);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
    }
}

fn decode_value(buf: &mut Bytes) -> Result<SqlValue> {
    match get_u8(buf)? {
        0 => Ok(SqlValue::Null),
        1 => {
            if buf.remaining() < 8 {
                return Err(SqlError::Parse("truncated int".into()));
            }
            Ok(SqlValue::Int(buf.get_i64_le()))
        }
        2 => {
            if buf.remaining() < 8 {
                return Err(SqlError::Parse("truncated real".into()));
            }
            Ok(SqlValue::Real(buf.get_f64_le()))
        }
        3 => {
            let len = get_u32(buf)? as usize;
            if buf.remaining() < len {
                return Err(SqlError::Parse("truncated text".into()));
            }
            let raw = buf.split_to(len);
            String::from_utf8(raw.to_vec())
                .map(SqlValue::Text)
                .map_err(|_| SqlError::Parse("bad utf-8".into()))
        }
        t => Err(SqlError::Parse(format!("bad value tag {t}"))),
    }
}

fn encode_schema(s: &TableSchema, buf: &mut BytesMut) {
    put_str(buf, &s.name);
    buf.put_u16_le(s.columns.len() as u16);
    for c in &s.columns {
        put_str(buf, &c.name);
        buf.put_u8(match c.dtype {
            DataType::Int => 0,
            DataType::Real => 1,
            DataType::Text => 2,
        });
    }
    buf.put_u16_le(s.primary_key.len() as u16);
    for &k in &s.primary_key {
        buf.put_u16_le(k as u16);
    }
}

fn decode_schema(buf: &mut Bytes) -> Result<TableSchema> {
    let name = get_str(buf)?;
    let ncols = get_u16(buf)? as usize;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let cname = get_str(buf)?;
        let dtype = match get_u8(buf)? {
            0 => DataType::Int,
            1 => DataType::Real,
            2 => DataType::Text,
            t => return Err(SqlError::Parse(format!("bad type tag {t}"))),
        };
        columns.push(Column { name: cname, dtype });
    }
    let npk = get_u16(buf)? as usize;
    let mut pk = Vec::with_capacity(npk);
    for _ in 0..npk {
        pk.push(get_u16(buf)? as usize);
    }
    TableSchema::new(&name, columns, pk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, EngineProfile};

    fn sample_db(rows: usize) -> Database {
        let db = Database::new(EngineProfile::h2());
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, bal REAL)")
            .unwrap();
        for i in 0..rows {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'name{i}', {i}.5)"))
                .unwrap();
        }
        db
    }

    #[test]
    fn batch_codec_roundtrip() {
        let db = sample_db(10);
        let snap = db.snapshot();
        for b in snap.to_batches(64) {
            let decoded = RowBatch::decode(b.encode()).unwrap();
            assert_eq!(decoded, b);
        }
    }

    #[test]
    fn batches_respect_size_and_reassemble() {
        let db = sample_db(100);
        let snap = db.snapshot();
        let batches = snap.to_batches(256);
        assert!(batches.len() > 5, "should split into many batches");
        for b in &batches {
            // Allow one row of overshoot.
            assert!(
                b.encoded_len() < 256 + 64,
                "batch of {} bytes",
                b.encoded_len()
            );
        }
        let rebuilt = Snapshot::from_batches(&batches).unwrap();
        assert_eq!(rebuilt, snap);
    }

    #[test]
    fn restore_from_transferred_batches() {
        let db = sample_db(50);
        let batches = db.snapshot().to_batches(50_000);
        let wire: Vec<Bytes> = batches.iter().map(RowBatch::encode).collect();
        let received: Result<Vec<RowBatch>> = wire.into_iter().map(RowBatch::decode).collect();
        let snap = Snapshot::from_batches(&received.unwrap()).unwrap();
        let dst = Database::new(EngineProfile::hsqldb());
        dst.restore(&snap).unwrap();
        assert_eq!(dst.table_len("t"), 50);
        let r = dst.execute("SELECT name FROM t WHERE id = 49").unwrap();
        assert_eq!(r.rows[0][0], SqlValue::Text("name49".into()));
    }

    #[test]
    fn multi_table_snapshots() {
        let db = sample_db(5);
        db.execute("CREATE TABLE u (k INT PRIMARY KEY)").unwrap();
        db.execute("INSERT INTO u VALUES (1), (2)").unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.tables().len(), 2);
        assert_eq!(snap.row_count(), 7);
        let rebuilt = Snapshot::from_batches(&snap.to_batches(128)).unwrap();
        assert_eq!(rebuilt.row_count(), 7);
    }

    #[test]
    fn byte_blob_roundtrip() {
        let db = sample_db(25);
        db.execute("CREATE TABLE u (k INT PRIMARY KEY)").unwrap();
        db.execute("INSERT INTO u VALUES (1), (2)").unwrap();
        let snap = db.snapshot();
        let blob = snap.to_bytes();
        assert_eq!(Snapshot::from_bytes(blob.clone()).unwrap(), snap);
        // Truncation is an error, not a panic.
        assert!(Snapshot::from_bytes(blob.slice(0..blob.len() - 2)).is_err());
        assert_eq!(Snapshot::from_bytes(Bytes::new()).unwrap().row_count(), 0);
    }

    #[test]
    fn orphan_batch_rejected() {
        let b = RowBatch {
            table: "ghost".into(),
            schema: None,
            rows: vec![],
        };
        assert!(Snapshot::from_batches(&[b]).is_err());
    }

    #[test]
    fn truncated_wire_rejected() {
        let db = sample_db(3);
        let batch = &db.snapshot().to_batches(50_000)[0];
        let full = batch.encode();
        let cut = full.slice(0..full.len() - 3);
        assert!(RowBatch::decode(cut).is_err());
    }
}
