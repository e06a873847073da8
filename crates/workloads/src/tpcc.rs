//! TPC-C (reference \[27\]): schema, loader, and all five transaction types.
//!
//! The paper runs TPC-C "configured with 1 warehouse" (≈100 MB loaded) and
//! reports "the average transaction execution latency, considering all
//! five TPC-C transaction types". This module implements the benchmark as
//! deterministic stored procedures over the `shadowdb-sqldb` engine: all
//! randomness is drawn client-side into the transaction's parameters, so
//! replicas replay identically.
//!
//! The standard mix is used: 45 % NewOrder, 43 % Payment, 4 % OrderStatus,
//! 4 % Delivery, 4 % StockLevel, with 1 % of NewOrders rolling back on an
//! invalid item, per the specification.
//!
//! Beyond the paper's single warehouse, the loader and procedures support
//! many warehouses — the natural TPC-C shard key. A NewOrder line may name
//! a *remote* supply warehouse and a Payment a *remote* customer
//! warehouse; when those warehouses live on another shard the transaction
//! decomposes into per-shard parts ([`TpccTxn::RemoteStock`],
//! [`TpccTxn::RemotePay`]) committed under 2PC-over-TOB. Stock and
//! customer updates are guarded on row presence, so the home part applies
//! cleanly on a shard that only holds its own warehouses, while on an
//! unsharded multi-warehouse database the same procedure applies the whole
//! transaction inline. The item catalog is replicated reference data,
//! loaded identically on every shard, which keeps the invalid-item
//! rollback (and hence the 2PC vote) deterministic everywhere.

use crate::txn::Session;
use crate::txn::TxnOutcome;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use shadowdb_eventml::Value;
use shadowdb_sqldb::{Database, SqlError, SqlValue};

/// Sizing of a TPC-C database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TpccScale {
    /// Districts per warehouse (spec: 10).
    pub districts: i64,
    /// Customers per district (spec: 3 000).
    pub customers_per_district: i64,
    /// Item catalog size (spec: 100 000).
    pub items: i64,
    /// Initially loaded orders per district (spec: 3 000).
    pub orders_per_district: i64,
}

impl TpccScale {
    /// The specification's 1-warehouse sizing (≈100 MB, as in the paper).
    pub fn full() -> TpccScale {
        TpccScale {
            districts: 10,
            customers_per_district: 3_000,
            items: 100_000,
            orders_per_district: 3_000,
        }
    }

    /// A miniature sizing for tests.
    pub fn small() -> TpccScale {
        TpccScale {
            districts: 2,
            customers_per_district: 30,
            items: 200,
            orders_per_district: 20,
        }
    }

    /// Total initially loaded rows (for a single warehouse).
    pub fn total_rows(&self) -> i64 {
        1 + self.districts
            + self.districts * self.customers_per_district
            + self.items * 2 // item + stock
            + self.districts * self.orders_per_district // orders
            + self.districts * self.orders_per_district * 10 // ~10 lines each
            + self.districts * (self.orders_per_district / 3) // new_order backlog
    }
}

/// Creates the nine TPC-C tables and their indexes.
///
/// # Errors
///
/// Propagates engine errors.
pub fn create_schema(db: &Database) -> Result<(), SqlError> {
    let ddl = [
        "CREATE TABLE warehouse (w_id INT PRIMARY KEY, w_name TEXT, w_tax REAL, w_ytd REAL)",
        "CREATE TABLE district (d_w_id INT, d_id INT, d_name TEXT, d_tax REAL, d_ytd REAL, \
         d_next_o_id INT, PRIMARY KEY (d_w_id, d_id))",
        "CREATE TABLE customer (c_w_id INT, c_d_id INT, c_id INT, c_last TEXT, c_first TEXT, \
         c_credit TEXT, c_balance REAL, c_ytd_payment REAL, c_payment_cnt INT, \
         c_delivery_cnt INT, PRIMARY KEY (c_w_id, c_d_id, c_id))",
        "CREATE TABLE history (h_id INT PRIMARY KEY, h_c_id INT, h_c_d_id INT, h_c_w_id INT, \
         h_d_id INT, h_w_id INT, h_amount REAL)",
        "CREATE TABLE orders (o_w_id INT, o_d_id INT, o_id INT, o_c_id INT, o_entry_d INT, \
         o_carrier_id INT, o_ol_cnt INT, PRIMARY KEY (o_w_id, o_d_id, o_id))",
        "CREATE TABLE new_order (no_w_id INT, no_d_id INT, no_o_id INT, \
         PRIMARY KEY (no_w_id, no_d_id, no_o_id))",
        "CREATE TABLE order_line (ol_w_id INT, ol_d_id INT, ol_o_id INT, ol_number INT, \
         ol_i_id INT, ol_qty INT, ol_amount REAL, ol_delivery_d INT, \
         PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number))",
        "CREATE TABLE item (i_id INT PRIMARY KEY, i_name TEXT, i_price REAL)",
        "CREATE TABLE stock (s_w_id INT, s_i_id INT, s_quantity INT, s_ytd INT, \
         s_order_cnt INT, s_remote_cnt INT, PRIMARY KEY (s_w_id, s_i_id))",
        "CREATE INDEX idx_orders_cust ON orders (o_w_id, o_d_id, o_c_id)",
    ];
    for s in ddl {
        db.execute(s)?;
    }
    Ok(())
}

/// Loads a 1-warehouse TPC-C database at the given scale, as in the paper.
///
/// # Errors
///
/// Propagates engine errors.
pub fn load(db: &Database, scale: &TpccScale, seed: u64) -> Result<(), SqlError> {
    load_warehouses(db, scale, seed, &[1])
}

/// Loads the given warehouses into one database: the shared item catalog
/// once, then per-warehouse districts, customers, stock, and order
/// history. Each warehouse's random order data is seeded independently
/// (derived from `seed` and the warehouse id, with warehouse 1 using
/// `seed` itself), so a warehouse's rows are byte-identical whether it is
/// loaded alone on its own shard or together with others — and
/// `load_warehouses(db, scale, seed, &[1])` is exactly the paper's
/// single-warehouse [`load`].
///
/// # Errors
///
/// Propagates engine errors.
pub fn load_warehouses(
    db: &Database,
    scale: &TpccScale,
    seed: u64,
    warehouses: &[i64],
) -> Result<(), SqlError> {
    create_schema(db)?;
    db.insert_rows(
        "warehouse",
        warehouses.iter().map(|&w| {
            vec![
                SqlValue::Int(w),
                SqlValue::Text(format!("WAREHOUSE{w}")),
                SqlValue::Real(0.08),
                SqlValue::Real(0.0),
            ]
        }),
    )?;
    for &w in warehouses {
        db.insert_rows(
            "district",
            (1..=scale.districts).map(|d| {
                vec![
                    SqlValue::Int(w),
                    SqlValue::Int(d),
                    SqlValue::Text(format!("DIST{d}")),
                    SqlValue::Real(0.05),
                    SqlValue::Real(0.0),
                    SqlValue::Int(scale.orders_per_district + 1),
                ]
            }),
        )?;
        for d in 1..=scale.districts {
            db.insert_rows(
                "customer",
                (1..=scale.customers_per_district).map(|c| {
                    vec![
                        SqlValue::Int(w),
                        SqlValue::Int(d),
                        SqlValue::Int(c),
                        SqlValue::Text(format!("LAST{}", c % 100)),
                        SqlValue::Text(format!("FIRST{c}")),
                        SqlValue::from(if c % 10 == 0 { "BC" } else { "GC" }),
                        SqlValue::Real(-10.0),
                        SqlValue::Real(10.0),
                        SqlValue::Int(1),
                        SqlValue::Int(0),
                    ]
                }),
            )?;
        }
    }
    // The item catalog is replicated reference data: identical on every
    // shard regardless of which warehouses it hosts.
    db.insert_rows(
        "item",
        (1..=scale.items).map(|i| {
            vec![
                SqlValue::Int(i),
                SqlValue::Text(format!("ITEM-{i}")),
                SqlValue::Real(1.0 + (i % 100) as f64),
            ]
        }),
    )?;
    for &w in warehouses {
        db.insert_rows(
            "stock",
            (1..=scale.items).map(|i| {
                vec![
                    SqlValue::Int(w),
                    SqlValue::Int(i),
                    SqlValue::Int(10 + (i % 91)),
                    SqlValue::Int(0),
                    SqlValue::Int(0),
                    SqlValue::Int(0),
                ]
            }),
        )?;
    }
    // Initial orders: every customer has roughly one historical order; the
    // last third of each district's orders are still undelivered.
    for &w in warehouses {
        let mut rng = SmallRng::seed_from_u64(
            seed.wrapping_add((w as u64 - 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        for d in 1..=scale.districts {
            let mut orders = Vec::new();
            let mut lines = Vec::new();
            let mut new_orders = Vec::new();
            for o in 1..=scale.orders_per_district {
                let c = rng.gen_range(1..=scale.customers_per_district);
                let ol_cnt = rng.gen_range(5..=15i64);
                let delivered = o <= scale.orders_per_district * 2 / 3;
                orders.push(vec![
                    SqlValue::Int(w),
                    SqlValue::Int(d),
                    SqlValue::Int(o),
                    SqlValue::Int(c),
                    SqlValue::Int(0),
                    if delivered {
                        SqlValue::Int(rng.gen_range(1..=10))
                    } else {
                        SqlValue::Null
                    },
                    SqlValue::Int(ol_cnt),
                ]);
                if !delivered {
                    new_orders.push(vec![SqlValue::Int(w), SqlValue::Int(d), SqlValue::Int(o)]);
                }
                for n in 1..=ol_cnt {
                    let i = rng.gen_range(1..=scale.items);
                    lines.push(vec![
                        SqlValue::Int(w),
                        SqlValue::Int(d),
                        SqlValue::Int(o),
                        SqlValue::Int(n),
                        SqlValue::Int(i),
                        SqlValue::Int(5),
                        SqlValue::Real(rng.gen_range(1.0..100.0)),
                        if delivered {
                            SqlValue::Int(0)
                        } else {
                            SqlValue::Null
                        },
                    ]);
                }
            }
            db.insert_rows("orders", orders)?;
            db.insert_rows("order_line", lines)?;
            db.insert_rows("new_order", new_orders)?;
        }
    }
    Ok(())
}

/// Loads this shard's slice of a `total_warehouses`-warehouse database
/// under the `(w_id - 1) mod shards` partitioning: the per-shard loader
/// for sharded deployments.
///
/// # Errors
///
/// Propagates engine errors.
pub fn load_shard(
    db: &Database,
    scale: &TpccScale,
    seed: u64,
    total_warehouses: i64,
    shards: usize,
    shard: usize,
) -> Result<(), SqlError> {
    let mine: Vec<i64> = (1..=total_warehouses)
        .filter(|w| (w - 1).rem_euclid(shards as i64) as usize == shard)
        .collect();
    db.set_shard_scope(shadowdb_sqldb::ShardScope::tpcc(shards, shard));
    load_warehouses(db, scale, seed, &mine)
}

/// One NewOrder line item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrderLine {
    /// Ordered item id (0 = the spec's invalid "unused" item, forcing a
    /// rollback).
    pub item: i64,
    /// Supplying warehouse (usually the home warehouse; a different id
    /// makes this a remote — potentially cross-shard — line).
    pub supply_w: i64,
    /// Quantity.
    pub qty: i64,
}

/// A TPC-C transaction with its parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum TpccTxn {
    /// Enter a new order.
    NewOrder {
        /// Home warehouse.
        warehouse: i64,
        /// District.
        district: i64,
        /// Customer.
        customer: i64,
        /// Line items (5–15 per spec).
        lines: Vec<OrderLine>,
    },
    /// Record a customer payment.
    Payment {
        /// Home warehouse (receives the payment).
        warehouse: i64,
        /// District.
        district: i64,
        /// Customer.
        customer: i64,
        /// The customer's warehouse (≠ `warehouse` for the spec's remote
        /// payments — the cross-shard case).
        c_warehouse: i64,
        /// Payment amount.
        amount: f64,
        /// Unique history-row id (chosen by the client so replays are
        /// deterministic and idempotent per request).
        history_id: i64,
    },
    /// Query a customer's most recent order.
    OrderStatus {
        /// Warehouse.
        warehouse: i64,
        /// District.
        district: i64,
        /// Customer.
        customer: i64,
    },
    /// Deliver the oldest undelivered order of every district.
    Delivery {
        /// Warehouse.
        warehouse: i64,
        /// Carrier assigned to the delivered orders.
        carrier: i64,
    },
    /// Count recently-sold items with low stock.
    StockLevel {
        /// Warehouse.
        warehouse: i64,
        /// District.
        district: i64,
        /// Stock threshold.
        threshold: i64,
    },
    /// The foreign-shard part of a remote NewOrder: apply the stock
    /// updates for `lines` (all supplied by this shard's warehouses) of an
    /// order entered at the `home` warehouse. Produced by
    /// [`ShardMap::part_for`](crate::shard::ShardMap::part_for), never by
    /// clients.
    RemoteStock {
        /// The order's home warehouse (on another shard).
        home: i64,
        /// The lines this shard supplies.
        lines: Vec<OrderLine>,
    },
    /// The customer-shard part of a remote Payment: debit the customer's
    /// balance at their own warehouse. Produced by
    /// [`ShardMap::part_for`](crate::shard::ShardMap::part_for), never by
    /// clients.
    RemotePay {
        /// The customer's warehouse (on this shard).
        warehouse: i64,
        /// District.
        district: i64,
        /// Customer.
        customer: i64,
        /// Payment amount.
        amount: f64,
    },
}

impl TpccTxn {
    /// Executes the transaction in its own engine transaction.
    ///
    /// # Errors
    ///
    /// Infrastructure failures only; spec-mandated rollbacks return
    /// `committed: false`.
    pub fn apply(&self, db: &Database) -> Result<TxnOutcome, SqlError> {
        let mut txn = db.begin()?;
        let out = self.apply_in(&mut txn)?;
        txn.commit()?;
        Ok(out)
    }

    /// Executes the transaction body inside an already-open transaction
    /// (group apply). The spec's NewOrder rollback is scoped to a
    /// savepoint, so work from earlier transactions in the group survives.
    ///
    /// # Errors
    ///
    /// Infrastructure failures only; spec-mandated rollbacks return
    /// `committed: false`.
    pub fn apply_in(&self, txn: &mut impl Session) -> Result<TxnOutcome, SqlError> {
        match self {
            TpccTxn::NewOrder {
                warehouse,
                district,
                customer,
                lines,
            } => new_order(txn, *warehouse, *district, *customer, lines),
            TpccTxn::Payment {
                warehouse,
                district,
                customer,
                c_warehouse,
                amount,
                history_id,
            } => payment(
                txn,
                *warehouse,
                *district,
                *customer,
                *c_warehouse,
                *amount,
                *history_id,
            ),
            TpccTxn::OrderStatus {
                warehouse,
                district,
                customer,
            } => order_status(txn, *warehouse, *district, *customer),
            TpccTxn::Delivery { warehouse, carrier } => delivery(txn, *warehouse, *carrier),
            TpccTxn::StockLevel {
                warehouse,
                district,
                threshold,
            } => stock_level(txn, *warehouse, *district, *threshold),
            TpccTxn::RemoteStock { home, lines } => remote_stock(txn, *home, lines),
            TpccTxn::RemotePay {
                warehouse,
                district,
                customer,
                amount,
            } => remote_pay(txn, *warehouse, *district, *customer, *amount),
        }
    }

    /// Wire encoding.
    pub fn to_value(&self) -> Value {
        fn lines_value(lines: &[OrderLine]) -> Value {
            Value::list(lines.iter().map(|l| {
                Value::pair(
                    Value::Int(l.item),
                    Value::pair(Value::Int(l.supply_w), Value::Int(l.qty)),
                )
            }))
        }
        match self {
            TpccTxn::NewOrder {
                warehouse,
                district,
                customer,
                lines,
            } => Value::pair(
                Value::str("no"),
                Value::pair(
                    Value::Int(*warehouse),
                    Value::pair(
                        Value::Int(*district),
                        Value::pair(Value::Int(*customer), lines_value(lines)),
                    ),
                ),
            ),
            TpccTxn::Payment {
                warehouse,
                district,
                customer,
                c_warehouse,
                amount,
                history_id,
            } => Value::pair(
                Value::str("pay"),
                Value::pair(
                    Value::pair(
                        Value::Int(*warehouse),
                        Value::pair(Value::Int(*district), Value::Int(*customer)),
                    ),
                    Value::pair(
                        Value::pair(
                            Value::Int(*c_warehouse),
                            Value::Int((amount * 100.0).round() as i64),
                        ),
                        Value::Int(*history_id),
                    ),
                ),
            ),
            TpccTxn::OrderStatus {
                warehouse,
                district,
                customer,
            } => Value::pair(
                Value::str("os"),
                Value::pair(
                    Value::Int(*warehouse),
                    Value::pair(Value::Int(*district), Value::Int(*customer)),
                ),
            ),
            TpccTxn::Delivery { warehouse, carrier } => Value::pair(
                Value::str("dl"),
                Value::pair(Value::Int(*warehouse), Value::Int(*carrier)),
            ),
            TpccTxn::StockLevel {
                warehouse,
                district,
                threshold,
            } => Value::pair(
                Value::str("sl"),
                Value::pair(
                    Value::Int(*warehouse),
                    Value::pair(Value::Int(*district), Value::Int(*threshold)),
                ),
            ),
            TpccTxn::RemoteStock { home, lines } => Value::pair(
                Value::str("rs"),
                Value::pair(Value::Int(*home), lines_value(lines)),
            ),
            TpccTxn::RemotePay {
                warehouse,
                district,
                customer,
                amount,
            } => Value::pair(
                Value::str("rp"),
                Value::pair(
                    Value::pair(Value::Int(*warehouse), Value::Int(*district)),
                    Value::pair(
                        Value::Int(*customer),
                        Value::Int((amount * 100.0).round() as i64),
                    ),
                ),
            ),
        }
    }

    /// Wire decoding.
    pub fn from_value(v: &Value) -> Option<TpccTxn> {
        fn lines_from(v: &Value) -> Option<Vec<OrderLine>> {
            v.as_list()?
                .iter()
                .map(|l| {
                    Some(OrderLine {
                        item: l.fst()?.as_int()?,
                        supply_w: l.snd()?.fst()?.as_int()?,
                        qty: l.snd()?.snd()?.as_int()?,
                    })
                })
                .collect()
        }
        let (tag, body) = v.fst().zip(v.snd())?;
        match tag.as_str()? {
            "no" => {
                let rest = body.snd()?;
                Some(TpccTxn::NewOrder {
                    warehouse: body.fst()?.as_int()?,
                    district: rest.fst()?.as_int()?,
                    customer: rest.snd()?.fst()?.as_int()?,
                    lines: lines_from(rest.snd()?.snd()?)?,
                })
            }
            "pay" => {
                let (wdc, rest) = body.fst().zip(body.snd())?;
                Some(TpccTxn::Payment {
                    warehouse: wdc.fst()?.as_int()?,
                    district: wdc.snd()?.fst()?.as_int()?,
                    customer: wdc.snd()?.snd()?.as_int()?,
                    c_warehouse: rest.fst()?.fst()?.as_int()?,
                    amount: rest.fst()?.snd()?.as_int()? as f64 / 100.0,
                    history_id: rest.snd()?.as_int()?,
                })
            }
            "os" => Some(TpccTxn::OrderStatus {
                warehouse: body.fst()?.as_int()?,
                district: body.snd()?.fst()?.as_int()?,
                customer: body.snd()?.snd()?.as_int()?,
            }),
            "dl" => Some(TpccTxn::Delivery {
                warehouse: body.fst()?.as_int()?,
                carrier: body.snd()?.as_int()?,
            }),
            "sl" => Some(TpccTxn::StockLevel {
                warehouse: body.fst()?.as_int()?,
                district: body.snd()?.fst()?.as_int()?,
                threshold: body.snd()?.snd()?.as_int()?,
            }),
            "rs" => Some(TpccTxn::RemoteStock {
                home: body.fst()?.as_int()?,
                lines: lines_from(body.snd()?)?,
            }),
            "rp" => Some(TpccTxn::RemotePay {
                warehouse: body.fst()?.fst()?.as_int()?,
                district: body.fst()?.snd()?.as_int()?,
                customer: body.snd()?.fst()?.as_int()?,
                amount: body.snd()?.snd()?.as_int()? as f64 / 100.0,
            }),
            _ => None,
        }
    }
}

fn one_int(rs: &shadowdb_sqldb::ResultSet) -> Option<i64> {
    rs.rows
        .first()
        .and_then(|r| r.first())
        .and_then(SqlValue::as_int)
}

fn one_real(rs: &shadowdb_sqldb::ResultSet) -> Option<f64> {
    rs.rows
        .first()
        .and_then(|r| r.first())
        .and_then(SqlValue::as_real)
}

/// The spec's restock formula: keep quantity ≥ 10 after the sale or wrap
/// by the 91-unit reorder.
fn restock(qty: i64, sold: i64) -> i64 {
    if qty - sold >= 10 {
        qty - sold
    } else {
        qty - sold + 91
    }
}

/// Updates one stock row for a sold line. The read is guarded on row
/// presence: on a shard that does not host `line.supply_w` the row is
/// absent and the update is skipped — the supplying shard's
/// [`TpccTxn::RemoteStock`] part applies it there. Returns whether the row
/// was present.
fn update_stock(txn: &mut impl Session, w: i64, line: &OrderLine) -> Result<bool, SqlError> {
    let sw = line.supply_w;
    let Some(qty) = one_int(&txn.query(&format!(
        "SELECT s_quantity FROM stock WHERE s_w_id = {sw} AND s_i_id = {}",
        line.item
    ))?) else {
        return Ok(false);
    };
    let new_qty = restock(qty, line.qty);
    if sw == w {
        txn.execute(&format!(
            "UPDATE stock SET s_quantity = {new_qty}, s_ytd = s_ytd + {q}, \
             s_order_cnt = s_order_cnt + 1 WHERE s_w_id = {sw} AND s_i_id = {i}",
            q = line.qty,
            i = line.item
        ))?;
    } else {
        // A remote line additionally bumps the spec's s_remote_cnt.
        txn.execute(&format!(
            "UPDATE stock SET s_quantity = {new_qty}, s_ytd = s_ytd + {q}, \
             s_order_cnt = s_order_cnt + 1, s_remote_cnt = s_remote_cnt + 1 \
             WHERE s_w_id = {sw} AND s_i_id = {i}",
            q = line.qty,
            i = line.item
        ))?;
    }
    Ok(true)
}

fn new_order(
    txn: &mut impl Session,
    w: i64,
    d: i64,
    c: i64,
    lines: &[OrderLine],
) -> Result<TxnOutcome, SqlError> {
    let start = txn.virtual_cost();
    let sp = txn.savepoint();
    let w_tax = one_real(&txn.query(&format!("SELECT w_tax FROM warehouse WHERE w_id = {w}"))?)
        .unwrap_or(0.0);
    let rs = txn.query(&format!(
        "SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = {w} AND d_id = {d}"
    ))?;
    let d_tax = rs.rows[0][0].as_real().unwrap_or(0.0);
    let o_id = rs.rows[0][1].as_int().unwrap_or(1);
    txn.execute(&format!(
        "UPDATE district SET d_next_o_id = {} WHERE d_w_id = {w} AND d_id = {d}",
        o_id + 1
    ))?;
    txn.execute(&format!(
        "INSERT INTO orders VALUES ({w}, {d}, {o_id}, {c}, 0, NULL, {})",
        lines.len()
    ))?;
    txn.execute(&format!("INSERT INTO new_order VALUES ({w}, {d}, {o_id})"))?;
    let mut total = 0.0;
    for (n, line) in lines.iter().enumerate() {
        let price = one_real(&txn.query(&format!(
            "SELECT i_price FROM item WHERE i_id = {}",
            line.item
        ))?);
        let Some(price) = price else {
            // Spec: 1% of NewOrders carry an unused item id and roll back.
            // Rolling back to the entry savepoint (rather than aborting the
            // whole engine transaction) keeps any earlier work in a group
            // apply intact. The item catalog is replicated on every shard,
            // so this outcome — and hence a 2PC vote — is identical
            // wherever it is evaluated.
            txn.rollback_to(sp)?;
            return Ok(TxnOutcome {
                committed: false,
                result: vec![SqlValue::Text("item not found".into())],
                cost: std::time::Duration::from_micros(100),
            });
        };
        update_stock(txn, w, line)?;
        let amount = price * line.qty as f64;
        total += amount;
        txn.execute(&format!(
            "INSERT INTO order_line VALUES ({w}, {d}, {o_id}, {}, {}, {}, {amount}, NULL)",
            n + 1,
            line.item,
            line.qty
        ))?;
    }
    total *= (1.0 + w_tax + d_tax) * 0.98; // spec's discount/tax roll-up
    Ok(TxnOutcome {
        committed: true,
        result: vec![SqlValue::Int(o_id), SqlValue::Real(total)],
        cost: txn.virtual_cost() - start,
    })
}

fn remote_stock(
    txn: &mut impl Session,
    home: i64,
    lines: &[OrderLine],
) -> Result<TxnOutcome, SqlError> {
    let start = txn.virtual_cost();
    let mut updated = 0i64;
    for line in lines {
        // The item catalog is replicated, so an invalid item aborts here
        // exactly as it does at the home shard — votes agree.
        let price = one_real(&txn.query(&format!(
            "SELECT i_price FROM item WHERE i_id = {}",
            line.item
        ))?);
        if price.is_none() {
            return Ok(TxnOutcome {
                committed: false,
                result: vec![SqlValue::Text("item not found".into())],
                cost: std::time::Duration::from_micros(100),
            });
        }
        if update_stock(txn, home, line)? {
            updated += 1;
        }
    }
    Ok(TxnOutcome {
        committed: true,
        result: vec![SqlValue::Int(updated)],
        cost: txn.virtual_cost() - start,
    })
}

fn payment(
    txn: &mut impl Session,
    w: i64,
    d: i64,
    c: i64,
    c_w: i64,
    amount: f64,
    history_id: i64,
) -> Result<TxnOutcome, SqlError> {
    let start = txn.virtual_cost();
    txn.execute(&format!(
        "UPDATE warehouse SET w_ytd = w_ytd + {amount} WHERE w_id = {w}"
    ))?;
    txn.execute(&format!(
        "UPDATE district SET d_ytd = d_ytd + {amount} WHERE d_w_id = {w} AND d_id = {d}"
    ))?;
    // The customer row lives at their own warehouse; on a shard that does
    // not host it this update matches no rows and the customer shard's
    // RemotePay part applies it instead.
    txn.execute(&format!(
        "UPDATE customer SET c_balance = c_balance - {amount}, \
         c_ytd_payment = c_ytd_payment + {amount}, c_payment_cnt = c_payment_cnt + 1 \
         WHERE c_w_id = {c_w} AND c_d_id = {d} AND c_id = {c}"
    ))?;
    txn.execute(&format!(
        "INSERT INTO history VALUES ({history_id}, {c}, {d}, {c_w}, {d}, {w}, {amount})"
    ))?;
    let balance = one_real(&txn.query(&format!(
        "SELECT c_balance FROM customer WHERE c_w_id = {c_w} AND c_d_id = {d} AND c_id = {c}"
    ))?)
    .unwrap_or(0.0);
    Ok(TxnOutcome {
        committed: true,
        result: vec![SqlValue::Real(balance)],
        cost: txn.virtual_cost() - start,
    })
}

fn remote_pay(
    txn: &mut impl Session,
    w: i64,
    d: i64,
    c: i64,
    amount: f64,
) -> Result<TxnOutcome, SqlError> {
    let start = txn.virtual_cost();
    txn.execute(&format!(
        "UPDATE customer SET c_balance = c_balance - {amount}, \
         c_ytd_payment = c_ytd_payment + {amount}, c_payment_cnt = c_payment_cnt + 1 \
         WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c}"
    ))?;
    let balance = one_real(&txn.query(&format!(
        "SELECT c_balance FROM customer WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c}"
    ))?)
    .unwrap_or(0.0);
    Ok(TxnOutcome {
        committed: true,
        result: vec![SqlValue::Real(balance)],
        cost: txn.virtual_cost() - start,
    })
}

fn order_status(txn: &mut impl Session, w: i64, d: i64, c: i64) -> Result<TxnOutcome, SqlError> {
    let start = txn.virtual_cost();
    let bal = one_real(&txn.query(&format!(
        "SELECT c_balance FROM customer WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c}"
    ))?)
    .unwrap_or(0.0);
    let rs = txn.query(&format!(
        "SELECT o_id, o_carrier_id FROM orders \
         WHERE o_w_id = {w} AND o_d_id = {d} AND o_c_id = {c} ORDER BY o_id DESC LIMIT 1"
    ))?;
    let mut result = vec![SqlValue::Real(bal)];
    if let Some(order) = rs.rows.first() {
        let o_id = order[0].as_int().unwrap_or(0);
        result.push(SqlValue::Int(o_id));
        let lines = txn.query(&format!(
            "SELECT ol_i_id, ol_qty, ol_amount FROM order_line \
             WHERE ol_w_id = {w} AND ol_d_id = {d} AND ol_o_id = {o_id}"
        ))?;
        result.push(SqlValue::Int(lines.rows.len() as i64));
    }
    Ok(TxnOutcome {
        committed: true,
        result,
        cost: txn.virtual_cost() - start,
    })
}

fn delivery(txn: &mut impl Session, w: i64, carrier: i64) -> Result<TxnOutcome, SqlError> {
    let start = txn.virtual_cost();
    let districts =
        one_int(&txn.query(&format!("SELECT COUNT(*) FROM district WHERE d_w_id = {w}"))?)
            .unwrap_or(0);
    let mut delivered = 0;
    for d in 1..=districts {
        let oldest = one_int(&txn.query(&format!(
            "SELECT MIN(no_o_id) FROM new_order WHERE no_w_id = {w} AND no_d_id = {d}"
        ))?);
        let Some(o_id) = oldest else { continue };
        txn.execute(&format!(
            "DELETE FROM new_order WHERE no_w_id = {w} AND no_d_id = {d} AND no_o_id = {o_id}"
        ))?;
        let c = one_int(&txn.query(&format!(
            "SELECT o_c_id FROM orders WHERE o_w_id = {w} AND o_d_id = {d} AND o_id = {o_id}"
        ))?)
        .unwrap_or(1);
        txn.execute(&format!(
            "UPDATE orders SET o_carrier_id = {carrier} \
             WHERE o_w_id = {w} AND o_d_id = {d} AND o_id = {o_id}"
        ))?;
        txn.execute(&format!(
            "UPDATE order_line SET ol_delivery_d = 1 \
             WHERE ol_w_id = {w} AND ol_d_id = {d} AND ol_o_id = {o_id}"
        ))?;
        let amount = one_real(&txn.query(&format!(
            "SELECT SUM(ol_amount) FROM order_line \
             WHERE ol_w_id = {w} AND ol_d_id = {d} AND ol_o_id = {o_id}"
        ))?)
        .unwrap_or(0.0);
        txn.execute(&format!(
            "UPDATE customer SET c_balance = c_balance + {amount}, \
             c_delivery_cnt = c_delivery_cnt + 1 \
             WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c}"
        ))?;
        delivered += 1;
    }
    Ok(TxnOutcome {
        committed: true,
        result: vec![SqlValue::Int(delivered)],
        cost: txn.virtual_cost() - start,
    })
}

fn stock_level(
    txn: &mut impl Session,
    w: i64,
    d: i64,
    threshold: i64,
) -> Result<TxnOutcome, SqlError> {
    let start = txn.virtual_cost();
    let next = one_int(&txn.query(&format!(
        "SELECT d_next_o_id FROM district WHERE d_w_id = {w} AND d_id = {d}"
    ))?)
    .unwrap_or(1);
    // Items sold in the last 20 orders of the district.
    let lines = txn.query(&format!(
        "SELECT ol_i_id FROM order_line \
         WHERE ol_w_id = {w} AND ol_d_id = {d} AND ol_o_id >= {}",
        next - 20
    ))?;
    let mut items: Vec<i64> = lines.rows.iter().filter_map(|r| r[0].as_int()).collect();
    items.sort_unstable();
    items.dedup();
    let mut low = 0;
    for i in items {
        let qty = one_int(&txn.query(&format!(
            "SELECT s_quantity FROM stock WHERE s_w_id = {w} AND s_i_id = {i}"
        ))?)
        .unwrap_or(i64::MAX);
        if qty < threshold {
            low += 1;
        }
    }
    Ok(TxnOutcome {
        committed: true,
        result: vec![SqlValue::Int(low)],
        cost: txn.virtual_cost() - start,
    })
}

/// A deterministic generator of TPC-C transactions with the standard mix.
#[derive(Clone, Debug)]
pub struct TpccGen {
    rng: SmallRng,
    scale: TpccScale,
    next_history: i64,
    home: i64,
    warehouses: i64,
    remote_pct: u32,
}

impl TpccGen {
    /// Creates a single-warehouse generator, as in the paper. `client_id`
    /// spaces history ids so concurrent clients never collide.
    pub fn new(seed: u64, scale: TpccScale, client_id: u64) -> TpccGen {
        TpccGen::new_sharded(seed, scale, client_id, 1, 1, 0)
    }

    /// Creates a generator homed at warehouse `home` of a
    /// `warehouses`-warehouse database, where `remote_pct` percent of
    /// NewOrders carry a remote supply line and `remote_pct` percent of
    /// Payments target a remote customer — the cross-shard fraction when
    /// warehouses are partitioned across groups. With `warehouses == 1`
    /// the random stream is identical to [`TpccGen::new`].
    pub fn new_sharded(
        seed: u64,
        scale: TpccScale,
        client_id: u64,
        home: i64,
        warehouses: i64,
        remote_pct: u32,
    ) -> TpccGen {
        assert!(home >= 1 && home <= warehouses);
        TpccGen {
            rng: SmallRng::seed_from_u64(seed),
            scale,
            next_history: 1_000_000 * client_id as i64 + 1,
            home,
            warehouses,
            remote_pct,
        }
    }

    /// A uniformly random warehouse other than home.
    fn other_warehouse(&mut self) -> i64 {
        let mut o = self.rng.gen_range(1..self.warehouses);
        if o >= self.home {
            o += 1;
        }
        o
    }

    /// Whether the next transaction should be remote. Guarded so the
    /// single-warehouse configuration draws nothing extra from the rng and
    /// reproduces the original stream exactly.
    fn draw_remote(&mut self) -> bool {
        self.warehouses > 1
            && self.remote_pct > 0
            && self.rng.gen_range(0u32..100) < self.remote_pct
    }

    /// The next transaction, per the standard mix.
    pub fn next_txn(&mut self) -> TpccTxn {
        let d = self.rng.gen_range(1..=self.scale.districts);
        let c = self.rng.gen_range(1..=self.scale.customers_per_district);
        match self.rng.gen_range(0..100) {
            0..=44 => {
                let n = self.rng.gen_range(5..=15);
                let mut lines: Vec<OrderLine> = (0..n)
                    .map(|_| OrderLine {
                        item: self.rng.gen_range(1..=self.scale.items),
                        supply_w: self.home,
                        qty: self.rng.gen_range(1..=10),
                    })
                    .collect();
                if self.rng.gen_range(0..100) == 0 {
                    // 1% invalid item → deterministic rollback.
                    lines.last_mut().expect("n >= 5").item = 0;
                }
                if self.draw_remote() {
                    let idx = self.rng.gen_range(0..lines.len());
                    lines[idx].supply_w = self.other_warehouse();
                }
                TpccTxn::NewOrder {
                    warehouse: self.home,
                    district: d,
                    customer: c,
                    lines,
                }
            }
            45..=87 => {
                let h = self.next_history;
                self.next_history += 1;
                // Whole cents: the wire format carries amounts as cents.
                let amount = self.rng.gen_range(100..500_000) as f64 / 100.0;
                let c_warehouse = if self.draw_remote() {
                    self.other_warehouse()
                } else {
                    self.home
                };
                TpccTxn::Payment {
                    warehouse: self.home,
                    district: d,
                    customer: c,
                    c_warehouse,
                    amount,
                    history_id: h,
                }
            }
            88..=91 => TpccTxn::OrderStatus {
                warehouse: self.home,
                district: d,
                customer: c,
            },
            92..=95 => TpccTxn::Delivery {
                warehouse: self.home,
                carrier: self.rng.gen_range(1..=10),
            },
            _ => TpccTxn::StockLevel {
                warehouse: self.home,
                district: d,
                threshold: self.rng.gen_range(10..=20),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdb_sqldb::EngineProfile;

    fn loaded() -> Database {
        let db = Database::new(EngineProfile::h2());
        load(&db, &TpccScale::small(), 1).unwrap();
        db
    }

    fn line(item: i64, qty: i64) -> OrderLine {
        OrderLine {
            item,
            supply_w: 1,
            qty,
        }
    }

    #[test]
    fn load_populates_all_tables() {
        let db = loaded();
        assert_eq!(db.table_len("warehouse"), 1);
        assert_eq!(db.table_len("district"), 2);
        assert_eq!(db.table_len("customer"), 60);
        assert_eq!(db.table_len("item"), 200);
        assert_eq!(db.table_len("stock"), 200);
        assert_eq!(db.table_len("orders"), 40);
        assert!(db.table_len("order_line") > 100);
        assert!(db.table_len("new_order") > 5);
    }

    #[test]
    fn new_order_commits_and_advances_sequence() {
        let db = loaded();
        let t = TpccTxn::NewOrder {
            warehouse: 1,
            district: 1,
            customer: 3,
            lines: vec![line(5, 2), line(9, 1)],
        };
        let before = db.table_len("orders");
        let out = t.apply(&db).unwrap();
        assert!(out.committed);
        assert_eq!(db.table_len("orders"), before + 1);
        // Sequence advanced.
        let r = db
            .execute("SELECT d_next_o_id FROM district WHERE d_w_id = 1 AND d_id = 1")
            .unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap(), 22);
    }

    #[test]
    fn invalid_item_rolls_back_completely() {
        let db = loaded();
        let before_orders = db.table_len("orders");
        let before_lines = db.table_len("order_line");
        let t = TpccTxn::NewOrder {
            warehouse: 1,
            district: 1,
            customer: 1,
            lines: vec![line(5, 1), line(0, 1)],
        };
        let out = t.apply(&db).unwrap();
        assert!(!out.committed);
        assert_eq!(db.table_len("orders"), before_orders);
        assert_eq!(db.table_len("order_line"), before_lines);
        let r = db
            .execute("SELECT d_next_o_id FROM district WHERE d_w_id = 1 AND d_id = 1")
            .unwrap();
        assert_eq!(r.rows[0][0].as_int().unwrap(), 21, "sequence rolled back");
    }

    #[test]
    fn payment_moves_money() {
        let db = loaded();
        let t = TpccTxn::Payment {
            warehouse: 1,
            district: 2,
            customer: 7,
            c_warehouse: 1,
            amount: 12.5,
            history_id: 1,
        };
        let out = t.apply(&db).unwrap();
        assert!(out.committed);
        assert_eq!(out.result[0].as_real().unwrap(), -22.5);
        assert_eq!(db.table_len("history"), 1);
        let r = db
            .execute("SELECT w_ytd FROM warehouse WHERE w_id = 1")
            .unwrap();
        assert_eq!(r.rows[0][0].as_real().unwrap(), 12.5);
    }

    #[test]
    fn order_status_reads_latest_order() {
        let db = loaded();
        TpccTxn::NewOrder {
            warehouse: 1,
            district: 1,
            customer: 4,
            lines: vec![line(3, 1)],
        }
        .apply(&db)
        .unwrap();
        let out = TpccTxn::OrderStatus {
            warehouse: 1,
            district: 1,
            customer: 4,
        }
        .apply(&db)
        .unwrap();
        assert!(out.committed);
        assert_eq!(out.result[1].as_int().unwrap(), 21, "latest order id");
        assert_eq!(out.result[2].as_int().unwrap(), 1, "one line");
    }

    #[test]
    fn delivery_consumes_new_orders() {
        let db = loaded();
        let backlog = db.table_len("new_order");
        let out = TpccTxn::Delivery {
            warehouse: 1,
            carrier: 3,
        }
        .apply(&db)
        .unwrap();
        assert!(out.committed);
        assert_eq!(out.result[0].as_int().unwrap(), 2, "one per district");
        assert_eq!(db.table_len("new_order"), backlog - 2);
    }

    #[test]
    fn stock_level_counts_low_stock() {
        let db = loaded();
        let out = TpccTxn::StockLevel {
            warehouse: 1,
            district: 1,
            threshold: 100,
        }
        .apply(&db)
        .unwrap();
        assert!(out.committed);
        let high = TpccTxn::StockLevel {
            warehouse: 1,
            district: 1,
            threshold: 0,
        }
        .apply(&db)
        .unwrap();
        assert_eq!(high.result[0].as_int().unwrap(), 0);
        assert!(out.result[0].as_int().unwrap() >= high.result[0].as_int().unwrap());
    }

    #[test]
    fn wire_roundtrip_all_types() {
        let mut g = TpccGen::new_sharded(5, TpccScale::small(), 2, 2, 4, 50);
        for _ in 0..80 {
            let t = g.next_txn();
            assert_eq!(TpccTxn::from_value(&t.to_value()), Some(t));
        }
        for t in [
            TpccTxn::RemoteStock {
                home: 3,
                lines: vec![OrderLine {
                    item: 7,
                    supply_w: 2,
                    qty: 4,
                }],
            },
            TpccTxn::RemotePay {
                warehouse: 2,
                district: 1,
                customer: 9,
                amount: 31.25,
            },
        ] {
            assert_eq!(TpccTxn::from_value(&t.to_value()), Some(t));
        }
    }

    #[test]
    fn replicas_replay_identically() {
        let db1 = loaded();
        let db2 = loaded();
        let mut g = TpccGen::new(11, TpccScale::small(), 1);
        for _ in 0..60 {
            let t = g.next_txn();
            let a = t.apply(&db1).unwrap();
            let b = t.apply(&db2).unwrap();
            assert_eq!(a.committed, b.committed);
            assert_eq!(a.result, b.result);
        }
        for table in [
            "district",
            "customer",
            "orders",
            "order_line",
            "stock",
            "history",
        ] {
            assert_eq!(db1.table_len(table), db2.table_len(table), "{table}");
        }
    }

    #[test]
    fn generator_mix_is_roughly_standard() {
        let mut g = TpccGen::new(1, TpccScale::small(), 1);
        let mut counts = [0u32; 5];
        for _ in 0..2_000 {
            match g.next_txn() {
                TpccTxn::NewOrder { .. } => counts[0] += 1,
                TpccTxn::Payment { .. } => counts[1] += 1,
                TpccTxn::OrderStatus { .. } => counts[2] += 1,
                TpccTxn::Delivery { .. } => counts[3] += 1,
                TpccTxn::StockLevel { .. } => counts[4] += 1,
                other => panic!("clients never generate {other:?}"),
            }
        }
        assert!((800..1_000).contains(&counts[0]), "NewOrder {counts:?}");
        assert!((760..960).contains(&counts[1]), "Payment {counts:?}");
        for c in &counts[2..] {
            assert!((40..140).contains(c), "{counts:?}");
        }
    }

    #[test]
    fn sharded_generator_produces_remote_transactions() {
        let mut g = TpccGen::new_sharded(3, TpccScale::small(), 1, 1, 4, 100);
        let (mut remote_orders, mut remote_pays) = (0, 0);
        for _ in 0..300 {
            match g.next_txn() {
                TpccTxn::NewOrder {
                    warehouse, lines, ..
                } => {
                    assert_eq!(warehouse, 1);
                    if lines.iter().any(|l| l.supply_w != 1) {
                        for l in &lines {
                            assert!((1..=4).contains(&l.supply_w));
                        }
                        remote_orders += 1;
                    }
                }
                TpccTxn::Payment { c_warehouse, .. } if c_warehouse != 1 => {
                    assert!((2..=4).contains(&c_warehouse));
                    remote_pays += 1;
                }
                _ => {}
            }
        }
        assert!(remote_orders > 50, "{remote_orders}");
        assert!(remote_pays > 50, "{remote_pays}");
    }

    /// A warehouse's initial data must not depend on which other
    /// warehouses share its database — the property that makes per-shard
    /// loading equivalent to loading everything in one place.
    #[test]
    fn per_warehouse_load_is_placement_independent() {
        let scale = TpccScale::small();
        let combined = Database::new(EngineProfile::h2());
        load_warehouses(&combined, &scale, 9, &[1, 2]).unwrap();
        let alone = Database::new(EngineProfile::h2());
        load_warehouses(&alone, &scale, 9, &[2]).unwrap();
        for (sql, label) in [
            (
                "SELECT SUM(o_c_id) FROM orders WHERE o_w_id = 2",
                "order customers",
            ),
            (
                "SELECT SUM(o_ol_cnt) FROM orders WHERE o_w_id = 2",
                "order line counts",
            ),
            (
                "SELECT COUNT(*) FROM order_line WHERE ol_w_id = 2",
                "order lines",
            ),
            (
                "SELECT COUNT(*) FROM new_order WHERE no_w_id = 2",
                "backlog",
            ),
        ] {
            assert_eq!(
                combined.execute(sql).unwrap().rows[0][0],
                alone.execute(sql).unwrap().rows[0][0],
                "{label}"
            );
        }
        check_consistency(&alone).unwrap();
        check_consistency(&combined).unwrap();
    }

    /// Executing a remote NewOrder's per-shard parts on separate databases
    /// leaves exactly the state the whole transaction leaves on one
    /// combined database.
    #[test]
    fn remote_new_order_parts_equal_inline_execution() {
        use crate::shard::ShardMap;
        use crate::txn::TxnRequest;
        let scale = TpccScale::small();
        let combined = Database::new(EngineProfile::h2());
        load_warehouses(&combined, &scale, 9, &[1, 2]).unwrap();
        let shard0 = Database::new(EngineProfile::h2());
        load_shard(&shard0, &scale, 9, 2, 2, 0).unwrap();
        let shard1 = Database::new(EngineProfile::h2());
        load_shard(&shard1, &scale, 9, 2, 2, 1).unwrap();

        let map = ShardMap::new(2);
        let txn = TxnRequest::Tpcc(TpccTxn::NewOrder {
            warehouse: 1,
            district: 1,
            customer: 3,
            lines: vec![
                OrderLine {
                    item: 5,
                    supply_w: 1,
                    qty: 2,
                },
                OrderLine {
                    item: 9,
                    supply_w: 2,
                    qty: 6,
                },
            ],
        });
        let whole = txn.apply(&combined).unwrap();
        let p0 = map.part_for(&txn, 0).unwrap().apply(&shard0).unwrap();
        let p1 = map.part_for(&txn, 1).unwrap().apply(&shard1).unwrap();
        assert!(whole.committed && p0.committed && p1.committed);
        // The home part answers exactly like the inline execution.
        assert_eq!(whole.result, p0.result);
        // The remote warehouse's stock row is identical either way,
        // including the remote counter.
        let probe = "SELECT s_quantity, s_ytd, s_order_cnt, s_remote_cnt \
                     FROM stock WHERE s_w_id = 2 AND s_i_id = 9";
        assert_eq!(
            combined.execute(probe).unwrap().rows,
            shard1.execute(probe).unwrap().rows
        );
        check_consistency(&shard0).unwrap();
        check_consistency(&shard1).unwrap();
    }

    /// Same property for a remote Payment: home and customer parts on
    /// separate shards reproduce the inline execution.
    #[test]
    fn remote_payment_parts_equal_inline_execution() {
        use crate::shard::ShardMap;
        use crate::txn::TxnRequest;
        let scale = TpccScale::small();
        let combined = Database::new(EngineProfile::h2());
        load_warehouses(&combined, &scale, 9, &[1, 2]).unwrap();
        let shard0 = Database::new(EngineProfile::h2());
        load_shard(&shard0, &scale, 9, 2, 2, 0).unwrap();
        let shard1 = Database::new(EngineProfile::h2());
        load_shard(&shard1, &scale, 9, 2, 2, 1).unwrap();

        let map = ShardMap::new(2);
        let txn = TxnRequest::Tpcc(TpccTxn::Payment {
            warehouse: 1,
            district: 2,
            customer: 7,
            c_warehouse: 2,
            amount: 12.5,
            history_id: 44,
        });
        let whole = txn.apply(&combined).unwrap();
        map.part_for(&txn, 0).unwrap().apply(&shard0).unwrap();
        let p1 = map.part_for(&txn, 1).unwrap().apply(&shard1).unwrap();
        assert!(whole.committed);
        // The customer shard computes the same final balance.
        assert_eq!(whole.result, p1.result);
        let cust = "SELECT c_balance, c_ytd_payment, c_payment_cnt \
                    FROM customer WHERE c_w_id = 2 AND c_d_id = 2 AND c_id = 7";
        assert_eq!(
            combined.execute(cust).unwrap().rows,
            shard1.execute(cust).unwrap().rows
        );
        // The home shard holds the warehouse ytd and the history row.
        let ytd = "SELECT w_ytd FROM warehouse WHERE w_id = 1";
        assert_eq!(
            combined.execute(ytd).unwrap().rows,
            shard0.execute(ytd).unwrap().rows
        );
        assert_eq!(shard0.table_len("history"), 1);
        assert_eq!(shard1.table_len("history"), 0);
    }
}

/// TPC-C consistency conditions (clause 3.3.2 of the specification,
/// conditions 1–4): structural invariants any correct execution history
/// must leave in the database, checked for every warehouse the database
/// hosts. Replication must preserve them on every replica, and sharded
/// execution on every shard.
///
/// Returns the first violated condition as an error string.
pub fn check_consistency(db: &Database) -> Result<(), String> {
    let one_int = |sql: &str| -> Result<Option<i64>, String> {
        let rs = db.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
        Ok(rs
            .rows
            .first()
            .and_then(|r| r.first())
            .and_then(SqlValue::as_int))
    };
    let rs = db
        .execute("SELECT w_id FROM warehouse")
        .map_err(|e| e.to_string())?;
    let warehouses: Vec<i64> = rs.rows.iter().filter_map(|r| r[0].as_int()).collect();
    if warehouses.is_empty() {
        return Err("no warehouses".into());
    }
    for w in warehouses {
        let districts = one_int(&format!("SELECT COUNT(*) FROM district WHERE d_w_id = {w}"))?
            .ok_or("no districts")?;
        for d in 1..=districts {
            // Condition 2: d_next_o_id - 1 = max(o_id) = max(no_o_id ∪ o_id).
            let next = one_int(&format!(
                "SELECT d_next_o_id FROM district WHERE d_w_id = {w} AND d_id = {d}"
            ))?
            .ok_or("district missing")?;
            let max_o = one_int(&format!(
                "SELECT MAX(o_id) FROM orders WHERE o_w_id = {w} AND o_d_id = {d}"
            ))?
            .unwrap_or(0);
            if next - 1 != max_o {
                return Err(format!(
                    "condition 2 violated in warehouse {w} district {d}: \
                     d_next_o_id-1={} but max(o_id)={max_o}",
                    next - 1
                ));
            }
            // Condition 3: new_order ids form a contiguous range ending at max.
            let no_count = one_int(&format!(
                "SELECT COUNT(*) FROM new_order WHERE no_w_id = {w} AND no_d_id = {d}"
            ))?
            .unwrap_or(0);
            if no_count > 0 {
                let no_min = one_int(&format!(
                    "SELECT MIN(no_o_id) FROM new_order WHERE no_w_id = {w} AND no_d_id = {d}"
                ))?
                .ok_or("min missing")?;
                let no_max = one_int(&format!(
                    "SELECT MAX(no_o_id) FROM new_order WHERE no_w_id = {w} AND no_d_id = {d}"
                ))?
                .ok_or("max missing")?;
                if no_max - no_min + 1 != no_count {
                    return Err(format!(
                        "condition 3 violated in warehouse {w} district {d}: new_order range \
                         [{no_min}, {no_max}] has {no_count} rows"
                    ));
                }
            }
            // Condition 4: sum(o_ol_cnt) = number of order lines.
            let ol_cnt_sum = one_int(&format!(
                "SELECT SUM(o_ol_cnt) FROM orders WHERE o_w_id = {w} AND o_d_id = {d}"
            ))?
            .unwrap_or(0);
            let ol_rows = one_int(&format!(
                "SELECT COUNT(*) FROM order_line WHERE ol_w_id = {w} AND ol_d_id = {d}"
            ))?
            .unwrap_or(0);
            if ol_cnt_sum != ol_rows {
                return Err(format!(
                    "condition 4 violated in warehouse {w} district {d}: \
                     sum(o_ol_cnt)={ol_cnt_sum} but {ol_rows} order lines"
                ));
            }
        }
        // Condition 1 (adapted to our schema): w_ytd = sum(d_ytd).
        let rs = db
            .execute(&format!("SELECT w_ytd FROM warehouse WHERE w_id = {w}"))
            .map_err(|e| e.to_string())?;
        let w_ytd = rs.rows[0][0].as_real().ok_or("w_ytd")?;
        let rs = db
            .execute(&format!(
                "SELECT SUM(d_ytd) FROM district WHERE d_w_id = {w}"
            ))
            .map_err(|e| e.to_string())?;
        let d_ytd = rs.rows[0][0].as_real().ok_or("d_ytd")?;
        if (w_ytd - d_ytd).abs() > 1e-6 {
            return Err(format!(
                "condition 1 violated in warehouse {w}: w_ytd={w_ytd} but sum(d_ytd)={d_ytd}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod consistency_tests {
    use super::*;
    use shadowdb_sqldb::EngineProfile;

    #[test]
    fn fresh_load_is_consistent() {
        let db = Database::new(EngineProfile::h2());
        load(&db, &TpccScale::small(), 4).unwrap();
        check_consistency(&db).unwrap();
    }

    #[test]
    fn consistency_survives_a_workload() {
        let db = Database::new(EngineProfile::h2());
        load(&db, &TpccScale::small(), 4).unwrap();
        let mut g = TpccGen::new(2, TpccScale::small(), 1);
        for _ in 0..150 {
            g.next_txn().apply(&db).unwrap();
        }
        check_consistency(&db).unwrap();
    }

    #[test]
    fn multi_warehouse_workload_stays_consistent() {
        let db = Database::new(EngineProfile::h2());
        load_warehouses(&db, &TpccScale::small(), 4, &[1, 2, 3]).unwrap();
        let mut g = TpccGen::new_sharded(2, TpccScale::small(), 1, 2, 3, 25);
        for _ in 0..150 {
            g.next_txn().apply(&db).unwrap();
        }
        check_consistency(&db).unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let db = Database::new(EngineProfile::h2());
        load(&db, &TpccScale::small(), 4).unwrap();
        // Simulate a Mandelbug: bump a district sequence without an order.
        db.execute("UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_id = 1")
            .unwrap();
        let err = check_consistency(&db).unwrap_err();
        assert!(err.contains("condition 2"), "{err}");
    }
}
