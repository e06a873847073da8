//! Table storage: row heap plus B-tree indexes.

use crate::expr::Expr;
use crate::schema::TableSchema;
use crate::value::{Row, SqlValue};
use crate::{Result, SqlError};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

/// Identifies a row within its table for the lifetime of the table.
pub type RowId = u64;

/// An access path: *which* index a predicate probes and with what key.
///
/// The planner ([`Table::plan_path`]) produces an `AccessPath<Expr>`
/// whose key parts are the predicate's operands — literals or statement
/// parameters. That choice depends only on the schema, the set of indexes
/// and the statement's shape — never on row data or bound values — so a
/// cached path stays valid across DML and needs recomputing only after
/// DDL. [`AccessPath::bind`] fills in the values for one execution,
/// giving the `AccessPath<SqlValue>` that [`Table::candidates_via`] runs.
#[derive(Clone, Debug, PartialEq)]
pub enum AccessPath<K = SqlValue> {
    /// Point lookup: the full primary key is pinned by equalities.
    PkPoint(Vec<K>),
    /// Range scan over a non-empty primary-key prefix pinned by
    /// equalities, optionally bounded on the next key column.
    PkRange {
        /// The pinned key prefix.
        prefix: Vec<K>,
        /// Lower bound on the key column after the prefix.
        lower: Bound<K>,
        /// Upper bound on the key column after the prefix.
        upper: Bound<K>,
    },
    /// Probe of a secondary index with a fully pinned key.
    Secondary {
        /// Index name (re-resolved by name at execution time).
        index: String,
        /// The pinned key.
        key: Vec<K>,
    },
    /// No usable index: walk the heap.
    FullScan,
}

impl AccessPath<Expr> {
    /// Evaluates the path's operands with `params` bound.
    ///
    /// # Errors
    ///
    /// Fails if an operand names a parameter `params` does not supply.
    pub fn bind(&self, params: &[SqlValue]) -> Result<AccessPath> {
        let val = |e: &Expr| e.eval(&[], params);
        let vals = |es: &[Expr]| es.iter().map(val).collect::<Result<Vec<_>>>();
        let bound = |b: &Bound<Expr>| -> Result<Bound<SqlValue>> {
            Ok(match b {
                Bound::Included(e) => Bound::Included(val(e)?),
                Bound::Excluded(e) => Bound::Excluded(val(e)?),
                Bound::Unbounded => Bound::Unbounded,
            })
        };
        Ok(match self {
            AccessPath::PkPoint(key) => AccessPath::PkPoint(vals(key)?),
            AccessPath::PkRange {
                prefix,
                lower,
                upper,
            } => AccessPath::PkRange {
                prefix: vals(prefix)?,
                lower: bound(lower)?,
                upper: bound(upper)?,
            },
            AccessPath::Secondary { index, key } => AccessPath::Secondary {
                index: index.clone(),
                key: vals(key)?,
            },
            AccessPath::FullScan => AccessPath::FullScan,
        })
    }
}

/// A secondary index over a subset of columns.
#[derive(Clone, Debug)]
pub struct SecondaryIndex {
    /// Index name.
    pub name: String,
    /// Indexed column positions, in key order.
    pub columns: Vec<usize>,
    /// key -> row ids (non-unique).
    map: BTreeMap<Vec<SqlValue>, BTreeSet<RowId>>,
}

/// A table: schema, heap, primary-key index, secondary indexes.
#[derive(Clone, Debug)]
pub struct Table {
    schema: TableSchema,
    rows: BTreeMap<RowId, Row>,
    next_rowid: RowId,
    pk: BTreeMap<Vec<SqlValue>, RowId>,
    secondary: Vec<SecondaryIndex>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: TableSchema) -> Table {
        Table {
            schema,
            rows: BTreeMap::new(),
            next_rowid: 0,
            pk: BTreeMap::new(),
            secondary: Vec::new(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Adds a secondary index over `columns`, indexing existing rows.
    ///
    /// # Errors
    ///
    /// Fails if an index with the same name exists or a column is unknown.
    pub fn create_index(&mut self, name: &str, columns: &[String]) -> Result<()> {
        if self.secondary.iter().any(|i| i.name == name) {
            return Err(SqlError::Constraint(format!("index {name} already exists")));
        }
        let cols: Result<Vec<usize>> = columns.iter().map(|c| self.schema.col(c)).collect();
        let mut idx = SecondaryIndex {
            name: name.to_owned(),
            columns: cols?,
            map: BTreeMap::new(),
        };
        for (&rid, row) in &self.rows {
            let key: Vec<SqlValue> = idx.columns.iter().map(|&c| row[c].clone()).collect();
            idx.map.entry(key).or_default().insert(rid);
        }
        self.secondary.push(idx);
        Ok(())
    }

    /// Inserts a row.
    ///
    /// # Errors
    ///
    /// Fails on arity/type mismatch or duplicate primary key.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        self.schema.check_row(&row)?;
        let key = self.schema.key_of(&row);
        if self.pk.contains_key(&key) {
            return Err(SqlError::Constraint(format!(
                "duplicate primary key {key:?} in {}",
                self.schema.name
            )));
        }
        let rid = self.next_rowid;
        self.next_rowid += 1;
        for idx in &mut self.secondary {
            let ikey: Vec<SqlValue> = idx.columns.iter().map(|&c| row[c].clone()).collect();
            idx.map.entry(ikey).or_default().insert(rid);
        }
        self.pk.insert(key, rid);
        self.rows.insert(rid, row);
        Ok(rid)
    }

    /// Fetches a row by id.
    pub fn get(&self, rid: RowId) -> Option<&Row> {
        self.rows.get(&rid)
    }

    /// Re-inserts a previously deleted row under its *original* id (the
    /// undo path: a transaction that deleted and re-inserted a key must
    /// roll back to exactly the ids it started from).
    ///
    /// # Errors
    ///
    /// Fails if the id or primary key is already in use, or on schema
    /// violations.
    pub fn restore(&mut self, rid: RowId, row: Row) -> Result<()> {
        self.schema.check_row(&row)?;
        if self.rows.contains_key(&rid) {
            return Err(SqlError::Constraint(format!(
                "row id {rid} already occupied"
            )));
        }
        let key = self.schema.key_of(&row);
        if self.pk.contains_key(&key) {
            return Err(SqlError::Constraint(format!(
                "duplicate primary key {key:?}"
            )));
        }
        for idx in &mut self.secondary {
            let ikey: Vec<SqlValue> = idx.columns.iter().map(|c| row[*c].clone()).collect();
            idx.map.entry(ikey).or_default().insert(rid);
        }
        self.pk.insert(key, rid);
        self.rows.insert(rid, row);
        self.next_rowid = self.next_rowid.max(rid + 1);
        Ok(())
    }

    /// Deletes a row by id, returning it.
    pub fn delete(&mut self, rid: RowId) -> Option<Row> {
        let row = self.rows.remove(&rid)?;
        self.pk.remove(&self.schema.key_of(&row));
        for idx in &mut self.secondary {
            let ikey: Vec<SqlValue> = idx.columns.iter().map(|&c| row[c].clone()).collect();
            if let Some(set) = idx.map.get_mut(&ikey) {
                set.remove(&rid);
                if set.is_empty() {
                    idx.map.remove(&ikey);
                }
            }
        }
        Some(row)
    }

    /// Replaces a row in place, maintaining all indexes.
    ///
    /// # Errors
    ///
    /// Fails on schema violations or if the new primary key collides with a
    /// different row.
    pub fn update(&mut self, rid: RowId, new_row: Row) -> Result<Row> {
        self.schema.check_row(&new_row)?;
        let old = self
            .rows
            .get(&rid)
            .cloned()
            .ok_or_else(|| SqlError::Unknown(format!("row id {rid}")))?;
        let old_key = self.schema.key_of(&old);
        let new_key = self.schema.key_of(&new_row);
        if new_key != old_key {
            if self.pk.contains_key(&new_key) {
                return Err(SqlError::Constraint(format!(
                    "update collides on primary key {new_key:?}"
                )));
            }
            self.pk.remove(&old_key);
            self.pk.insert(new_key, rid);
        }
        for idx in &mut self.secondary {
            let old_ikey: Vec<SqlValue> = idx.columns.iter().map(|&c| old[c].clone()).collect();
            let new_ikey: Vec<SqlValue> = idx.columns.iter().map(|&c| new_row[c].clone()).collect();
            if old_ikey != new_ikey {
                if let Some(set) = idx.map.get_mut(&old_ikey) {
                    set.remove(&rid);
                    if set.is_empty() {
                        idx.map.remove(&old_ikey);
                    }
                }
                idx.map.entry(new_ikey).or_default().insert(rid);
            }
        }
        self.rows.insert(rid, new_row);
        Ok(old)
    }

    /// Looks up a row id by full primary key.
    pub fn lookup_pk(&self, key: &[SqlValue]) -> Option<RowId> {
        self.pk.get(key).copied()
    }

    /// Chooses the cheapest access path for a bound predicate: a point
    /// lookup on a full primary key, a range scan on a primary-key prefix
    /// (bounded on the next key column when the predicate bounds it), a
    /// secondary-index probe, or a full scan. The choice depends only on
    /// the schema, the index set and the predicate's shape, so callers may
    /// cache it across statements and invalidate on DDL.
    pub fn plan_path(&self, filter: Option<&Expr>) -> AccessPath<Expr> {
        let Some(f) = filter else {
            return AccessPath::FullScan;
        };
        let pk = &self.schema.primary_key;
        let prefix = f.pk_prefix(pk);
        if prefix.len() == pk.len() {
            return AccessPath::PkPoint(prefix);
        }
        if !prefix.is_empty() {
            let (lower, upper) = f.key_bounds(pk[prefix.len()]);
            return AccessPath::PkRange {
                prefix,
                lower,
                upper,
            };
        }
        // Try a secondary index with a fully pinned key.
        for idx in &self.secondary {
            let key = f.pk_prefix(&idx.columns);
            if key.len() == idx.columns.len() {
                return AccessPath::Secondary {
                    index: idx.name.clone(),
                    key,
                };
            }
        }
        AccessPath::FullScan
    }

    /// Executes a bound access path against current data, returning the
    /// candidate row ids and whether the cost model charges the probe as
    /// an index read rather than a heap scan.
    ///
    /// The charge follows the path *without* its range bounds: a probe is
    /// an index read when its key prefix excludes some row (or the table
    /// is empty). Range bounds cut the rows walked, not the virtual cost,
    /// so simulated figures do not depend on which bounds the planner
    /// found. An index that no longer exists degrades to an empty probe —
    /// callers invalidate cached paths on DDL before that can be observed.
    pub fn candidates_via(&self, path: &AccessPath) -> (Vec<RowId>, bool) {
        let rids: Vec<RowId> = match path {
            AccessPath::PkPoint(key) => self.lookup_pk(key).into_iter().collect(),
            AccessPath::PkRange {
                prefix,
                lower,
                upper,
            } => self.pk_range(prefix, lower, upper),
            AccessPath::Secondary { index, key } => self
                .secondary
                .iter()
                .find(|i| &i.name == index)
                .and_then(|i| i.map.get(key))
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default(),
            AccessPath::FullScan => self.rows.keys().copied().collect(),
        };
        let narrowed = match path {
            // Keys sharing a prefix are contiguous: the prefix spans the
            // table iff the first and the last key both carry it.
            AccessPath::PkRange { prefix, .. } => {
                let carries = |k: Option<(&Vec<SqlValue>, &RowId)>| {
                    k.is_some_and(|(k, _)| k.starts_with(prefix))
                };
                !(carries(self.pk.first_key_value()) && carries(self.pk.last_key_value()))
            }
            _ => rids.len() < self.len(),
        };
        (rids, narrowed || self.is_empty())
    }

    /// Rows whose primary key starts with `prefix` and whose next key
    /// column lies within `lower..upper`, in key order.
    fn pk_range(
        &self,
        prefix: &[SqlValue],
        lower: &Bound<SqlValue>,
        upper: &Bound<SqlValue>,
    ) -> Vec<RowId> {
        let n = prefix.len();
        let mut start = prefix.to_vec();
        if let Bound::Included(v) | Bound::Excluded(v) = lower {
            start.push(v.clone());
        }
        let below_upper = |v: &SqlValue| match upper {
            Bound::Included(u) => v <= u,
            Bound::Excluded(u) => v < u,
            Bound::Unbounded => true,
        };
        self.pk
            .range(start..)
            .take_while(|(k, _)| k.starts_with(prefix) && below_upper(&k[n]))
            .skip_while(|(k, _)| matches!(lower, Bound::Excluded(v) if k[n] == *v))
            .map(|(_, rid)| *rid)
            .collect()
    }

    /// Iterates over `(row id, row)` pairs in heap order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (RowId, &Row)> {
        self.rows.iter().map(|(rid, row)| (*rid, row))
    }

    /// Approximate total data size in bytes.
    pub fn byte_size(&self) -> usize {
        self.rows.values().map(|r| self.schema.row_bytes(r)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::schema::{Column, DataType};

    fn accounts() -> Table {
        Table::new(
            TableSchema::new(
                "accounts",
                vec![
                    Column {
                        name: "id".into(),
                        dtype: DataType::Int,
                    },
                    Column {
                        name: "owner".into(),
                        dtype: DataType::Text,
                    },
                    Column {
                        name: "balance".into(),
                        dtype: DataType::Int,
                    },
                ],
                vec![0],
            )
            .unwrap(),
        )
    }

    fn row(id: i64, owner: &str, bal: i64) -> Row {
        vec![SqlValue::Int(id), SqlValue::from(owner), SqlValue::Int(bal)]
    }

    /// The rows the planner's path for `f` probes.
    fn candidates(t: &Table, f: &Expr) -> Vec<RowId> {
        t.candidates_via(&t.plan_path(Some(f)).bind(&[]).unwrap()).0
    }

    fn cmp(op: CmpOp, col: usize, v: i64) -> Expr {
        Expr::Cmp(
            op,
            Box::new(Expr::Col(col)),
            Box::new(Expr::Lit(SqlValue::Int(v))),
        )
    }

    fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    /// `(w, d, id)` keyed table with 2 × 3 × 10 rows, inserted out of key
    /// order so heap order and key order differ.
    fn orders() -> Table {
        let col = |name: &str| Column {
            name: name.into(),
            dtype: DataType::Int,
        };
        let mut t = Table::new(
            TableSchema::new("orders", vec![col("w"), col("d"), col("id")], vec![0, 1, 2]).unwrap(),
        );
        for id in (0..10).rev() {
            for w in 0..2 {
                for d in 0..3 {
                    t.insert(vec![SqlValue::Int(w), SqlValue::Int(d), SqlValue::Int(id)])
                        .unwrap();
                }
            }
        }
        t
    }

    #[test]
    fn insert_lookup_delete() {
        let mut t = accounts();
        let rid = t.insert(row(1, "a", 10)).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup_pk(&[SqlValue::Int(1)]), Some(rid));
        assert_eq!(t.delete(rid).unwrap()[2], SqlValue::Int(10));
        assert!(t.is_empty());
        assert_eq!(t.lookup_pk(&[SqlValue::Int(1)]), None);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = accounts();
        t.insert(row(1, "a", 10)).unwrap();
        assert!(matches!(
            t.insert(row(1, "b", 20)),
            Err(SqlError::Constraint(_))
        ));
    }

    #[test]
    fn update_maintains_pk_index() {
        let mut t = accounts();
        let rid = t.insert(row(1, "a", 10)).unwrap();
        t.update(rid, row(2, "a", 10)).unwrap();
        assert_eq!(t.lookup_pk(&[SqlValue::Int(1)]), None);
        assert_eq!(t.lookup_pk(&[SqlValue::Int(2)]), Some(rid));
        // Colliding key change rejected.
        let rid3 = t.insert(row(3, "c", 0)).unwrap();
        assert!(t.update(rid3, row(2, "c", 0)).is_err());
    }

    #[test]
    fn secondary_index_used_and_maintained() {
        let mut t = accounts();
        for i in 0..10 {
            t.insert(row(i, if i % 2 == 0 { "even" } else { "odd" }, i * 10))
                .unwrap();
        }
        t.create_index("by_owner", &["owner".into()]).unwrap();
        let f = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Col(1)),
            Box::new(Expr::Lit(SqlValue::from("even"))),
        );
        assert_eq!(candidates(&t, &f).len(), 5);
        // Update moves a row between index keys.
        let rid = t.lookup_pk(&[SqlValue::Int(0)]).unwrap();
        t.update(rid, row(0, "odd", 0)).unwrap();
        assert_eq!(candidates(&t, &f).len(), 4);
        // Delete removes from the index.
        let rid2 = t.lookup_pk(&[SqlValue::Int(2)]).unwrap();
        t.delete(rid2);
        assert_eq!(candidates(&t, &f).len(), 3);
    }

    #[test]
    fn pk_point_lookup_path() {
        let mut t = accounts();
        for i in 0..100 {
            t.insert(row(i, "x", 0)).unwrap();
        }
        let f = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Col(0)),
            Box::new(Expr::Lit(SqlValue::Int(42))),
        );
        let c = candidates(&t, &f);
        assert_eq!(c.len(), 1);
        assert_eq!(t.get(c[0]).unwrap()[0], SqlValue::Int(42));
    }

    #[test]
    fn composite_pk_prefix_range() {
        let mut t = Table::new(
            TableSchema::new(
                "orders",
                vec![
                    Column {
                        name: "w".into(),
                        dtype: DataType::Int,
                    },
                    Column {
                        name: "d".into(),
                        dtype: DataType::Int,
                    },
                    Column {
                        name: "id".into(),
                        dtype: DataType::Int,
                    },
                ],
                vec![0, 1, 2],
            )
            .unwrap(),
        );
        for w in 0..2 {
            for d in 0..3 {
                for id in 0..4 {
                    t.insert(vec![SqlValue::Int(w), SqlValue::Int(d), SqlValue::Int(id)])
                        .unwrap();
                }
            }
        }
        // w = 1 AND d = 2 pins a prefix of 2 of 3 key columns → 4 rows.
        let f = Expr::And(
            Box::new(Expr::Cmp(
                CmpOp::Eq,
                Box::new(Expr::Col(0)),
                Box::new(Expr::Lit(SqlValue::Int(1))),
            )),
            Box::new(Expr::Cmp(
                CmpOp::Eq,
                Box::new(Expr::Col(1)),
                Box::new(Expr::Lit(SqlValue::Int(2))),
            )),
        );
        assert_eq!(candidates(&t, &f).len(), 4);
    }

    #[test]
    fn pk_range_path_agrees_with_full_scan_for_every_bound_kind() {
        let t = orders();
        let prefix = and(cmp(CmpOp::Eq, 0, 1), cmp(CmpOp::Eq, 1, 2));
        let matching = |f: &Expr, rids: Vec<RowId>| -> Vec<RowId> {
            let mut out: Vec<RowId> = rids
                .into_iter()
                .filter(|&r| f.matches(t.get(r).unwrap(), &[]).unwrap())
                .collect();
            out.sort_unstable();
            out
        };
        let scan = t.candidates_via(&AccessPath::FullScan).0;
        for op in [CmpOp::Ge, CmpOp::Gt, CmpOp::Le, CmpOp::Lt] {
            for v in [-1, 0, 4, 9, 10] {
                // Both operand sides: `id op v` and `v op' id`.
                let flipped = Expr::Cmp(
                    op.flipped(),
                    Box::new(Expr::Lit(SqlValue::Int(v))),
                    Box::new(Expr::Col(2)),
                );
                for bound in [cmp(op, 2, v), flipped] {
                    let f = and(prefix.clone(), bound);
                    let path = t.plan_path(Some(&f));
                    assert!(matches!(path, AccessPath::PkRange { .. }), "{path:?}");
                    let probed = candidates(&t, &f);
                    // The range is exact: every probed row matches.
                    assert_eq!(matching(&f, probed.clone()).len(), probed.len(), "{f:?}");
                    assert_eq!(matching(&f, probed), matching(&f, scan.clone()), "{f:?}");
                }
            }
        }
        // Two-sided: 3 <= id < 7 → 4 rows, walked in key order.
        let f = and(
            and(prefix.clone(), cmp(CmpOp::Ge, 2, 3)),
            cmp(CmpOp::Lt, 2, 7),
        );
        let ids: Vec<SqlValue> = candidates(&t, &f)
            .into_iter()
            .map(|r| t.get(r).unwrap()[2].clone())
            .collect();
        assert_eq!(ids, (3..7).map(SqlValue::Int).collect::<Vec<_>>());
    }

    #[test]
    fn range_bounds_do_not_change_the_cost_class() {
        let t = orders();
        // A prefix that excludes rows is charged as an index read, bounded
        // or not…
        let f = and(cmp(CmpOp::Eq, 0, 1), cmp(CmpOp::Ge, 1, 2));
        let bound = t.plan_path(Some(&f)).bind(&[]).unwrap();
        assert!(t.candidates_via(&bound).1);
        // …and a prefix covering every row is charged as a scan even when
        // its bound cuts the walk down to nothing.
        let mut one_w = Table::new(t.schema().clone());
        for (_, row) in t.iter().filter(|(_, r)| r[0] == SqlValue::Int(0)) {
            one_w.insert(row.clone()).unwrap();
        }
        let f = and(cmp(CmpOp::Eq, 0, 0), cmp(CmpOp::Gt, 1, 5));
        let (rids, narrowed) = one_w.candidates_via(&one_w.plan_path(Some(&f)).bind(&[]).unwrap());
        assert!(rids.is_empty());
        assert!(!narrowed);
    }

    #[test]
    fn plan_path_is_data_independent_but_index_dependent() {
        let mut t = accounts();
        for i in 0..4 {
            t.insert(row(i, "x", 0)).unwrap();
        }
        let f = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Col(1)),
            Box::new(Expr::Lit(SqlValue::from("x"))),
        );
        // Without an index on `owner` the path is a full scan…
        let before = t.plan_path(Some(&f));
        assert_eq!(before, AccessPath::FullScan);
        // …and stays valid (same candidates) across DML.
        t.insert(row(9, "x", 0)).unwrap();
        assert_eq!(t.candidates_via(&before.bind(&[]).unwrap()).0.len(), 5);
        // A new index changes the chosen path; the *old* path still
        // executes (it is the cache's job to refresh it).
        t.create_index("by_owner", &["owner".into()]).unwrap();
        let after = t.plan_path(Some(&f));
        assert!(matches!(after, AccessPath::Secondary { .. }));
        assert_eq!(t.candidates_via(&after.bind(&[]).unwrap()).0.len(), 5);
        assert_eq!(t.candidates_via(&before.bind(&[]).unwrap()).0.len(), 5);
    }

    #[test]
    fn byte_size_tracks_rows() {
        let mut t = accounts();
        t.insert(row(1, "", 10)).unwrap();
        assert_eq!(t.byte_size(), 16);
        t.insert(row(2, "abcd", 10)).unwrap();
        assert_eq!(t.byte_size(), 36);
    }
}
