//! Transaction requests: typed stored procedures with a wire encoding.

use crate::{bank, shard, tpcc};
use shadowdb_eventml::Value;
use shadowdb_sqldb::{Database, ResultSet, SqlError, SqlValue, Transaction};
use std::time::Duration;

/// The statement interface stored procedures run against. The system
/// runs them on an engine [`Transaction`]; tests wrap one to replay the
/// same procedures through a different execution path.
pub trait Session {
    /// Executes one statement (see [`Transaction::execute`]).
    ///
    /// # Errors
    ///
    /// As [`Transaction::execute`].
    fn execute(&mut self, sql: &str) -> Result<ResultSet, SqlError>;

    /// Executes a `SELECT` (an alias of [`Session::execute`]).
    ///
    /// # Errors
    ///
    /// As [`Transaction::execute`].
    fn query(&mut self, sql: &str) -> Result<ResultSet, SqlError> {
        self.execute(sql)
    }

    /// Virtual CPU time consumed so far.
    fn virtual_cost(&self) -> Duration;

    /// Marks the current undo position (see [`Transaction::savepoint`]).
    fn savepoint(&self) -> usize;

    /// Undoes the work after savepoint `sp`, keeping the transaction open.
    ///
    /// # Errors
    ///
    /// As [`Transaction::rollback_to`].
    fn rollback_to(&mut self, sp: usize) -> Result<(), SqlError>;
}

impl Session for Transaction {
    fn execute(&mut self, sql: &str) -> Result<ResultSet, SqlError> {
        Transaction::execute(self, sql)
    }

    fn virtual_cost(&self) -> Duration {
        Transaction::virtual_cost(self)
    }

    fn savepoint(&self) -> usize {
        Transaction::savepoint(self)
    }

    fn rollback_to(&mut self, sp: usize) -> Result<(), SqlError> {
        Transaction::rollback_to(self, sp)
    }
}

/// A transaction submitted by a client: type plus parameters.
///
/// Execution is deterministic given the parameters and the database state,
/// which is what state-machine replication requires ("we assume that
/// sequential transaction execution is deterministic").
#[derive(Clone, Debug, PartialEq)]
pub enum TxnRequest {
    /// Deposit `amount` into `account` (micro-benchmark update).
    BankDeposit {
        /// Target account id.
        account: i64,
        /// Amount to add.
        amount: i64,
    },
    /// Read an account's balance (micro-benchmark read).
    BankRead {
        /// Target account id.
        account: i64,
    },
    /// Move `amount` from one account to another. When the accounts live
    /// on different shards this is the bank workload's built-in
    /// cross-shard transaction; on a single shard it is an ordinary
    /// two-update procedure.
    BankTransfer {
        /// Source account id (debited).
        from: i64,
        /// Destination account id (credited).
        to: i64,
        /// Amount to move (overdrafts allowed, so transfers always
        /// commit — vote stability for deterministic 2PC).
        amount: i64,
    },
    /// One of the five TPC-C transactions.
    Tpcc(tpcc::TpccTxn),
    /// A raw SQL script executed statement by statement (generic client).
    Sql(Vec<String>),
    /// An internal 2PC-over-TOB record (prepare/vote/decision/done),
    /// riding the ordinary replicated transaction path so it is ordered,
    /// logged, and replayed exactly like a client transaction. Only
    /// sharded deployments produce these.
    TwoPc(shard::TwoPcRecord),
}

/// The outcome of executing a transaction.
#[derive(Clone, Debug, PartialEq)]
pub struct TxnOutcome {
    /// Whether the transaction committed (TPC-C NewOrder aborts ~1% by
    /// spec; aborts are deterministic, so every replica aborts alike).
    pub committed: bool,
    /// The result set summary returned to the client (procedure-specific).
    pub result: Vec<SqlValue>,
    /// Virtual CPU time the execution cost, per the engine profile.
    pub cost: Duration,
}

impl TxnRequest {
    /// Whether this request provably mutates nothing: the classification
    /// clients stamp onto [`TxnEnvelope`]s so replicas can serve the
    /// request from local state under a read lease. Conservative — only
    /// shapes that are reads *by construction* qualify: `BankRead`, and
    /// SQL scripts consisting solely of `SELECT`s without `FOR UPDATE`.
    /// Everything else (including TPC-C's read-only StockLevel/OrderStatus,
    /// which share a wire tag with the writers) stays on the ordered path.
    pub fn is_read_only(&self) -> bool {
        match self {
            TxnRequest::BankRead { .. } => true,
            TxnRequest::Sql(stmts) => {
                !stmts.is_empty()
                    && stmts.iter().all(|s| {
                        let t = s.trim_start();
                        t.len() >= 6
                            && t.as_bytes()[..6].eq_ignore_ascii_case(b"select")
                            && !t.to_ascii_lowercase().contains("for update")
                    })
            }
            _ => false,
        }
    }

    /// Executes a read-only request against committed state without
    /// touching the lock table, via [`Database::execute_read_only`].
    /// Returns `None` when the request is not actually read-only or when
    /// the lock-free path cannot serve it — the caller must then fall
    /// back to ordered execution (never answer from a guess).
    pub fn apply_read_only(&self, db: &Database) -> Option<TxnOutcome> {
        match self {
            TxnRequest::BankRead { account } => {
                let (rs, cost) = db
                    .execute_read_only(&format!(
                        "SELECT balance FROM accounts WHERE id = {account}"
                    ))
                    .ok()?;
                let balance = rs
                    .rows
                    .first()
                    .map(|r| r[0].clone())
                    .unwrap_or(SqlValue::Null);
                Some(TxnOutcome {
                    committed: true,
                    result: vec![balance],
                    cost,
                })
            }
            TxnRequest::Sql(stmts) if self.is_read_only() => {
                let mut result = Vec::new();
                let mut cost = Duration::ZERO;
                for s in stmts {
                    let (rs, c) = db.execute_read_only(s).ok()?;
                    cost += c;
                    result.push(SqlValue::Int(rs.affected as i64));
                    if let Some(first) = rs.rows.first() {
                        result.extend(first.iter().cloned());
                    }
                }
                Some(TxnOutcome {
                    committed: true,
                    result,
                    cost,
                })
            }
            _ => None,
        }
    }

    /// Executes this request against `db` in its own transaction.
    ///
    /// # Errors
    ///
    /// Infrastructure errors (unknown tables, lock timeouts) are returned;
    /// *semantic* aborts (e.g. TPC-C's invalid-item rollback) yield
    /// `Ok(TxnOutcome { committed: false, .. })`, since all replicas take
    /// them identically.
    pub fn apply(&self, db: &Database) -> Result<TxnOutcome, SqlError> {
        let mut txn = db.begin()?;
        let out = self.apply_in(&mut txn)?;
        txn.commit()?;
        Ok(out)
    }

    /// Executes this request inside an already-open transaction: the
    /// building block of [`apply_group`]. Semantic aborts roll back to a
    /// savepoint taken on entry, so earlier work in `txn` survives. The
    /// reported cost is the virtual time this request added to `txn`.
    ///
    /// # Errors
    ///
    /// Infrastructure errors are returned; the transaction must then be
    /// considered dead (the engine rolls back on lock timeouts).
    pub fn apply_in(&self, txn: &mut impl Session) -> Result<TxnOutcome, SqlError> {
        match self {
            TxnRequest::BankDeposit { account, amount } => bank::deposit_in(txn, *account, *amount),
            TxnRequest::BankRead { account } => bank::read_balance_in(txn, *account),
            TxnRequest::BankTransfer { from, to, amount } => {
                bank::transfer_in(txn, *from, *to, *amount)
            }
            TxnRequest::Tpcc(t) => t.apply_in(txn),
            TxnRequest::Sql(stmts) => {
                let start = txn.virtual_cost();
                let mut result = Vec::new();
                for s in stmts {
                    let rs = txn.execute(s)?;
                    result.push(SqlValue::Int(rs.affected as i64));
                    if let Some(first) = rs.rows.first() {
                        result.extend(first.iter().cloned());
                    }
                }
                Ok(TxnOutcome {
                    committed: true,
                    result,
                    cost: txn.virtual_cost() - start,
                })
            }
            // A 2PC record reaching the plain execution path means the
            // deployment is not sharded; refuse it deterministically so
            // every replica answers alike.
            TxnRequest::TwoPc(_) => Ok(TxnOutcome {
                committed: false,
                result: vec![SqlValue::Text("2pc outside sharded deployment".into())],
                cost: Duration::from_micros(1),
            }),
        }
    }

    /// Encodes the request for transport.
    pub fn to_value(&self) -> Value {
        match self {
            TxnRequest::BankDeposit { account, amount } => Value::pair(
                Value::str("deposit"),
                Value::pair(Value::Int(*account), Value::Int(*amount)),
            ),
            TxnRequest::BankRead { account } => {
                Value::pair(Value::str("read"), Value::Int(*account))
            }
            TxnRequest::BankTransfer { from, to, amount } => Value::pair(
                Value::str("xfer"),
                Value::pair(
                    Value::Int(*from),
                    Value::pair(Value::Int(*to), Value::Int(*amount)),
                ),
            ),
            TxnRequest::Tpcc(t) => Value::pair(Value::str("tpcc"), t.to_value()),
            TxnRequest::Sql(stmts) => Value::pair(
                Value::str("sql"),
                Value::list(stmts.iter().map(|s| Value::str(s))),
            ),
            TxnRequest::TwoPc(r) => Value::pair(Value::str("2pc"), r.to_value()),
        }
    }

    /// Decodes a request from transport.
    pub fn from_value(v: &Value) -> Option<TxnRequest> {
        let (tag, body) = v.fst().zip(v.snd())?;
        match tag.as_str()? {
            "deposit" => Some(TxnRequest::BankDeposit {
                account: body.fst()?.as_int()?,
                amount: body.snd()?.as_int()?,
            }),
            "read" => Some(TxnRequest::BankRead {
                account: body.as_int()?,
            }),
            "xfer" => Some(TxnRequest::BankTransfer {
                from: body.fst()?.as_int()?,
                to: body.snd()?.fst()?.as_int()?,
                amount: body.snd()?.snd()?.as_int()?,
            }),
            "tpcc" => tpcc::TpccTxn::from_value(body).map(TxnRequest::Tpcc),
            "2pc" => shard::TwoPcRecord::from_value(body).map(TxnRequest::TwoPc),
            "sql" => {
                let stmts: Option<Vec<String>> = body
                    .as_list()?
                    .iter()
                    .map(|s| s.as_str().map(str::to_owned))
                    .collect();
                Some(TxnRequest::Sql(stmts?))
            }
            _ => None,
        }
    }
}

/// Applies a run of transactions under ONE engine transaction: one commit
/// (and one lock-table pass) for the whole group instead of one per
/// request. Outcomes are reported per request, in delivery order, and are
/// identical to unbatched execution: replica execution is sequential, so
/// folding N deterministic transactions into one engine transaction
/// cannot change what any of them reads.
///
/// If the shared transaction dies on an infrastructure error, the group's
/// partial work is rolled back and every request is re-applied in its own
/// transaction, preserving exact unbatched semantics (including which
/// request fails).
pub fn apply_group(db: &Database, reqs: &[&TxnRequest]) -> Vec<Result<TxnOutcome, SqlError>> {
    if reqs.len() > 1 {
        if let Some(outs) = try_apply_group(db, reqs) {
            return outs;
        }
    }
    reqs.iter().map(|r| r.apply(db)).collect()
}

fn try_apply_group(
    db: &Database,
    reqs: &[&TxnRequest],
) -> Option<Vec<Result<TxnOutcome, SqlError>>> {
    let mut txn = db.begin().ok()?;
    let mut outs = Vec::with_capacity(reqs.len());
    for r in reqs {
        match r.apply_in(&mut txn) {
            Ok(out) => outs.push(Ok(out)),
            // Dropping the dead transaction rolls the whole group back;
            // the caller re-runs every request unbatched.
            Err(_) => return None,
        }
    }
    txn.commit().ok()?;
    Some(outs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        let reqs = vec![
            TxnRequest::BankDeposit {
                account: 7,
                amount: 100,
            },
            TxnRequest::BankRead { account: 3 },
            TxnRequest::BankTransfer {
                from: 1,
                to: 9,
                amount: 25,
            },
            TxnRequest::Sql(vec!["SELECT 1 FROM t".into(), "DELETE FROM t".into()]),
        ];
        for r in reqs {
            assert_eq!(TxnRequest::from_value(&r.to_value()), Some(r));
        }
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(TxnRequest::from_value(&Value::Int(3)), None);
        assert_eq!(
            TxnRequest::from_value(&Value::pair(Value::str("nope"), Value::Unit)),
            None
        );
    }

    use crate::tpcc::{self, OrderLine, TpccScale, TpccTxn};
    use shadowdb_sqldb::EngineProfile;

    fn mixed_batch() -> Vec<TxnRequest> {
        let mut g = tpcc::TpccGen::new(17, TpccScale::small(), 1);
        let mut reqs: Vec<TxnRequest> = (0..40).map(|_| TxnRequest::Tpcc(g.next_txn())).collect();
        // Force a semantic abort mid-group: an invalid item id.
        reqs.insert(
            13,
            TxnRequest::Tpcc(TpccTxn::NewOrder {
                warehouse: 1,
                district: 1,
                customer: 1,
                lines: vec![
                    OrderLine {
                        item: 5,
                        supply_w: 1,
                        qty: 1,
                    },
                    OrderLine {
                        item: 0,
                        supply_w: 1,
                        qty: 1,
                    },
                ],
            }),
        );
        reqs
    }

    #[test]
    fn group_apply_matches_individual_apply() {
        let mk = || {
            let db = Database::new(EngineProfile::h2());
            tpcc::load(&db, &TpccScale::small(), 4).unwrap();
            db
        };
        let reqs = mixed_batch();
        let solo_db = mk();
        let solo: Vec<TxnOutcome> = reqs.iter().map(|r| r.apply(&solo_db).unwrap()).collect();

        let group_db = mk();
        let refs: Vec<&TxnRequest> = reqs.iter().collect();
        let grouped: Vec<TxnOutcome> = apply_group(&group_db, &refs)
            .into_iter()
            .map(Result::unwrap)
            .collect();

        // Per-transaction answers (including the mid-group abort) and the
        // final database state are identical either way.
        assert_eq!(solo.len(), grouped.len());
        for (s, g) in solo.iter().zip(&grouped) {
            assert_eq!(s.committed, g.committed);
            assert_eq!(s.result, g.result);
        }
        assert!(grouped.iter().any(|o| !o.committed), "abort exercised");
        for table in ["district", "orders", "order_line", "new_order", "stock"] {
            assert_eq!(
                solo_db.table_len(table),
                group_db.table_len(table),
                "{table}"
            );
        }
        tpcc::check_consistency(&group_db).unwrap();
    }

    /// Routes every statement around the plan cache.
    struct Uncached<'a>(&'a mut Transaction);

    impl Session for Uncached<'_> {
        fn execute(&mut self, sql: &str) -> Result<ResultSet, SqlError> {
            self.0.execute_uncached(sql)
        }
        fn virtual_cost(&self) -> Duration {
            self.0.virtual_cost()
        }
        fn savepoint(&self) -> usize {
            self.0.savepoint()
        }
        fn rollback_to(&mut self, sp: usize) -> Result<(), SqlError> {
            self.0.rollback_to(sp)
        }
    }

    #[test]
    fn cached_group_apply_matches_uncached_replay() {
        let mk = || {
            let db = Database::new(EngineProfile::h2());
            tpcc::load(&db, &TpccScale::small(), 4).unwrap();
            db
        };
        // Four more terminals' seeded streams (terminal 1 is
        // `mixed_batch`'s), interleaved after the forced mid-group abort: every transaction type, Stock-Level's order-line
        // range scan included, with ids and amounts that differ per call.
        let mut gens: Vec<tpcc::TpccGen> = (2..=5)
            .map(|t| tpcc::TpccGen::new(29, TpccScale::small(), t))
            .collect();
        let mut reqs = mixed_batch();
        for i in 0..320 {
            reqs.push(TxnRequest::Tpcc(gens[i % 4].next_txn()));
        }
        assert!(reqs
            .iter()
            .any(|r| matches!(r, TxnRequest::Tpcc(TpccTxn::StockLevel { .. }))));

        let cached = mk();
        let uncached = mk();
        let mut at = 0;
        for size in (1..=7).cycle() {
            if at >= reqs.len() {
                break;
            }
            let group: Vec<&TxnRequest> = reqs[at..(at + size).min(reqs.len())].iter().collect();
            at += group.len();
            let got: Vec<TxnOutcome> = apply_group(&cached, &group)
                .into_iter()
                .map(Result::unwrap)
                .collect();
            let mut txn = uncached.begin().unwrap();
            let want: Vec<TxnOutcome> = group
                .iter()
                .map(|r| r.apply_in(&mut Uncached(&mut txn)).unwrap())
                .collect();
            txn.commit().unwrap();
            // Answers, commit decisions and virtual costs, request by request.
            assert_eq!(got, want, "group ending at request {at}");
        }
        assert_eq!(cached.snapshot(), uncached.snapshot());
        tpcc::check_consistency(&cached).unwrap();
    }

    #[test]
    fn group_apply_costs_sum_like_individual_costs() {
        let db = Database::new(EngineProfile::h2());
        tpcc::load(&db, &TpccScale::small(), 4).unwrap();
        let reqs = [
            TxnRequest::Sql(vec!["SELECT COUNT(*) FROM item".into()]),
            TxnRequest::Tpcc(TpccTxn::Payment {
                warehouse: 1,
                district: 1,
                customer: 2,
                c_warehouse: 1,
                amount: 10.0,
                history_id: 900,
            }),
        ];
        let refs: Vec<&TxnRequest> = reqs.iter().collect();
        let outs = apply_group(&db, &refs);
        for out in outs {
            let out = out.unwrap();
            assert!(out.cost.as_micros() > 0, "per-request cost attributed");
        }
    }

    #[test]
    fn read_only_classification() {
        assert!(TxnRequest::BankRead { account: 1 }.is_read_only());
        assert!(TxnRequest::Sql(vec!["SELECT a FROM t WHERE id = 1".into()]).is_read_only());
        assert!(
            TxnRequest::Sql(vec!["  select a FROM t".into(), "SELECT b FROM u".into()])
                .is_read_only()
        );
        // Anything that can mutate or lock is not a fast-path candidate.
        assert!(!TxnRequest::BankDeposit {
            account: 1,
            amount: 2
        }
        .is_read_only());
        assert!(!TxnRequest::BankTransfer {
            from: 1,
            to: 2,
            amount: 3
        }
        .is_read_only());
        assert!(!TxnRequest::Sql(vec!["SELECT a FROM t FOR UPDATE".into()]).is_read_only());
        assert!(!TxnRequest::Sql(vec![
            "SELECT a FROM t".into(),
            "UPDATE t SET a = 1 WHERE id = 1".into()
        ])
        .is_read_only());
        assert!(!TxnRequest::Sql(vec![]).is_read_only());
    }

    #[test]
    fn apply_read_only_matches_ordered_execution() {
        let db = Database::new(EngineProfile::h2());
        bank::load(&db, 8).unwrap();
        TxnRequest::BankDeposit {
            account: 3,
            amount: 41,
        }
        .apply(&db)
        .unwrap();

        let read = TxnRequest::BankRead { account: 3 };
        let fast = read.apply_read_only(&db).expect("read served on fast path");
        let ordered = read.apply(&db).unwrap();
        assert_eq!(fast.result, ordered.result);
        assert!(fast.committed);
        assert!(fast.cost > Duration::ZERO);

        let sql = TxnRequest::Sql(vec!["SELECT balance FROM accounts WHERE id = 3".into()]);
        let fast = sql.apply_read_only(&db).expect("sql read served");
        assert_eq!(fast.result, sql.apply(&db).unwrap().result);

        // Non-reads refuse the fast path outright.
        assert!(TxnRequest::BankDeposit {
            account: 1,
            amount: 1
        }
        .apply_read_only(&db)
        .is_none());
        assert!(
            TxnRequest::Sql(vec!["UPDATE accounts SET balance = 0 WHERE id = 1".into()])
                .apply_read_only(&db)
                .is_none()
        );
    }
}
