//! Equivalence of the shape-keyed plan cache with uncached execution.
//!
//! Every statement runs twice: through `Transaction::execute` (shape
//! lookup, cached plan, literal values bound per execution) on one
//! database and through `Transaction::execute_uncached` (fresh parse and
//! plan) on an identical twin. Result sets, affected counts, errors and
//! virtual costs must agree statement by statement, and the two databases
//! must end identical.

use proptest::prelude::*;
use shadowdb_sqldb::{Database, EngineProfile, ResultSet, SqlError, SqlValue};
use std::time::Duration;

/// A literal as it appears in statement text.
#[derive(Clone, Debug)]
enum Lit {
    Int(i64),
    Real(i64, u8),
    Text(String),
    Null,
}

impl Lit {
    fn sql(&self) -> String {
        match self {
            // Negative numbers render as unary minus, as users write them.
            Lit::Int(i) => i.to_string(),
            Lit::Real(whole, frac) => format!("{whole}.{frac:02}"),
            Lit::Text(s) => format!("'{}'", s.replace('\'', "''")),
            Lit::Null => "NULL".into(),
        }
    }
}

/// Small keys so predicates hit existing rows, of every literal type.
fn lit() -> impl Strategy<Value = Lit> {
    prop_oneof![
        (-3i64..12).prop_map(Lit::Int),
        (-3i64..12).prop_map(Lit::Int),
        (-3i64..12, 0u8..100).prop_map(|(w, f)| Lit::Real(w, f)),
        "[a-c' ]{0,4}".prop_map(Lit::Text),
        prop_oneof![
            Just("select".to_string()),
            Just("where k = 1".to_string()),
            Just("limit 3".to_string()),
            Just("it''s ?i".to_string()),
            Just("'; DROP TABLE t".to_string()),
        ]
        .prop_map(Lit::Text),
        Just(Lit::Null),
    ]
}

/// One statement: a shape index, its literals, and a LIMIT count.
#[derive(Clone, Debug)]
struct Op {
    shape: usize,
    lits: [Lit; 4],
    limit: u8,
}

fn op() -> impl Strategy<Value = Op> {
    (0usize..SHAPES, (lit(), lit(), lit(), lit()), 0u8..5).prop_map(
        |(shape, (a, b, c, d), limit)| Op {
            shape,
            lits: [a, b, c, d],
            limit,
        },
    )
}

const SHAPES: usize = 11;

impl Op {
    fn sql(&self) -> String {
        let [a, b, c, d] = &self.lits;
        let (a, b, c, d) = (a.sql(), b.sql(), c.sql(), d.sql());
        let n = self.limit;
        match self.shape {
            0 => format!("SELECT name, v FROM t WHERE k = {a} AND j = {b}"),
            1 => format!("SELECT * FROM t WHERE k = {a} AND j >= {b}"),
            2 => format!("SELECT j, v FROM t WHERE k = {a} AND j > {b} AND j < {c}"),
            3 => format!("SELECT k, j FROM t WHERE {a} >= j AND k = {b} AND {c} < j"),
            4 => format!("SELECT COUNT(*), SUM(v), MAX(name) FROM t WHERE name = {a} OR j <= {b}"),
            5 => format!("SELECT j FROM t WHERE k = {a} ORDER BY j DESC LIMIT {n}"),
            6 => format!("UPDATE t SET v = v + {a}, name = {b} WHERE k = {c} AND j = {d}"),
            7 => format!("UPDATE t SET v = v * 2 WHERE k = {a} AND j <= {b}"),
            8 => format!("INSERT INTO t VALUES ({a}, {b}, {c}, {d})"),
            9 => format!("DELETE FROM t WHERE k = {a} AND j > {b}"),
            _ => format!("SELECT name FROM t WHERE name = {a} AND k = {b} - 1"),
        }
    }
}

fn fresh() -> Database {
    let db = Database::new(EngineProfile::h2());
    db.execute("CREATE TABLE t (k INT, j INT, name TEXT, v REAL, PRIMARY KEY (k, j))")
        .unwrap();
    for k in 0..4 {
        for j in 0..8 {
            db.execute(&format!(
                "INSERT INTO t VALUES ({k}, {j}, '{}', {}.5)",
                ["a", "b", "it''s", "select"][(k + j) as usize % 4],
                k * j
            ))
            .unwrap();
        }
    }
    db
}

/// Runs `sql` in its own transaction, cached or not: the outcome and the
/// virtual cost it charged.
fn run(db: &Database, sql: &str, cached: bool) -> (Result<ResultSet, SqlError>, Duration) {
    let mut txn = db.begin().unwrap();
    let r = if cached {
        txn.execute(sql)
    } else {
        txn.execute_uncached(sql)
    };
    let cost = txn.virtual_cost();
    if r.is_ok() {
        txn.commit().unwrap();
    }
    (r, cost)
}

fn dump(db: &Database) -> Vec<Vec<SqlValue>> {
    let mut txn = db.begin().unwrap();
    txn.execute_uncached("SELECT * FROM t").unwrap().rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cached_execution_matches_uncached(ops in proptest::collection::vec(op(), 1..40)) {
        let cached = fresh();
        let uncached = fresh();
        for (i, op) in ops.iter().enumerate() {
            let sql = op.sql();
            // Re-index mid-stream now and then: the DDL epoch moves, and
            // every cached shape must re-plan onto the new index.
            if i == ops.len() / 2 && op.shape % 2 == 0 {
                let ddl = "CREATE INDEX by_name ON t (name)";
                prop_assert_eq!(run(&cached, ddl, true), run(&uncached, ddl, false));
            }
            let a = run(&cached, &sql, true);
            let b = run(&uncached, &sql, false);
            prop_assert!(a == b, "{sql}: {a:?} vs {b:?}");
            // The read-only path shares the cache and must agree too.
            if op.shape <= 5 || op.shape == 10 {
                let ro = cached.execute_read_only(&sql);
                let same = match (&ro, &a) {
                    (Ok((rs, c)), (Ok(ars), ac)) => rs == ars && c == ac,
                    (Err(e), (Err(ae), _)) => e == ae,
                    _ => false,
                };
                prop_assert!(same, "{sql}: {ro:?} vs {a:?}");
            }
        }
        prop_assert_eq!(dump(&cached), dump(&uncached));
    }

    #[test]
    fn one_shape_binds_any_literal_type(lits in proptest::collection::vec(lit(), 1..30)) {
        // The same statement text up to its literal, issued with ints,
        // reals, text and NULL in turn: each type is its own shape, and
        // each execution sees only its own value.
        let cached = fresh();
        let uncached = fresh();
        for l in &lits {
            for sql in [
                format!("SELECT name FROM t WHERE k = 1 AND j >= {}", l.sql()),
                format!("UPDATE t SET name = {} WHERE k = 2 AND j = 3", l.sql()),
                "SELECT name FROM t WHERE k = 2 AND j = 3".to_string(),
            ] {
                let (a, b) = (run(&cached, &sql, true), run(&uncached, &sql, false));
                prop_assert!(a == b, "{sql}: {a:?} vs {b:?}");
            }
        }
    }
}

#[test]
fn ddl_epoch_invalidates_every_bound_shape() {
    let cached = fresh();
    let uncached = fresh();
    let probe = |db: &Database, cached_run: bool, i: i64| {
        run(
            db,
            &format!("SELECT v, name FROM t WHERE k = {} AND j >= {i}", i % 4),
            cached_run,
        )
    };
    for i in 0..4 {
        assert_eq!(probe(&cached, true, i), probe(&uncached, false, i));
    }
    // Recreate the table with its columns in another order: a stale plan
    // would read `name` where `v` now lives.
    for (db, c) in [(&cached, true), (&uncached, false)] {
        run(db, "DROP TABLE t", c).0.unwrap();
        run(
            db,
            "CREATE TABLE t (name TEXT, v REAL, j INT, k INT, PRIMARY KEY (k, j))",
            c,
        )
        .0
        .unwrap();
        run(
            db,
            "INSERT INTO t VALUES ('x', 1.25, 5, 1), ('y', 2.5, 6, 1)",
            c,
        )
        .0
        .unwrap();
    }
    for i in 4..8 {
        let (a, b) = (probe(&cached, true, i), probe(&uncached, false, i));
        assert_eq!(a, b);
        if i == 5 {
            let rows = a.0.unwrap().rows;
            assert_eq!(
                rows,
                vec![
                    vec![SqlValue::Real(1.25), SqlValue::from("x")],
                    vec![SqlValue::Real(2.5), SqlValue::from("y")],
                ]
            );
        }
    }
}

#[test]
fn parse_errors_match_and_leave_no_trace() {
    let db = fresh();
    for sql in [
        "SELECT name FROM t WHERE k = ?i",
        "SELECT name FROM t WHERE name = 'open",
        "SELECT name FROM t WHERE k = 99999999999999999999",
        "SELECT name FROM t WHERE k = 1 LIMIT 'x'",
        "SELEC name FROM t",
    ] {
        let (a, _) = run(&db, sql, true);
        let (b, _) = run(&db, sql, false);
        assert!(matches!(a, Err(SqlError::Parse(_))), "{sql}: {a:?}");
        assert_eq!(a, b, "{sql}");
    }
}
