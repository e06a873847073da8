//! Isolated layer timings: the workload's own inputs replayed against one
//! layer's public API, outside the deployment.

use crate::schedule::{Mix, TxnSource, ACCOUNTS, TPCC_SCALE};
use crate::stats::quantile;
use shadowdb::msgs::TxnEnvelope;
use shadowdb_eventml::codec::{decode_msg, encode_msg};
use shadowdb_eventml::Msg;
use shadowdb_loe::Loc;
use shadowdb_runtime::StorageMode;
use shadowdb_sqldb::{Database, EngineProfile};
use shadowdb_wal::{Disk, Wal};
use shadowdb_workloads::{apply_group, bank, tpcc, TxnRequest};
use std::time::{Duration, Instant};

/// Minimum time each timing loop runs, so short operations are averaged
/// over many repetitions.
const MIN_LOOP: Duration = Duration::from_millis(100);

/// Encode and decode cost per message over `sample`, in nanoseconds.
pub fn codec_ns(sample: &[Msg]) -> (f64, f64) {
    if sample.is_empty() {
        return (0.0, 0.0);
    }
    let encoded: Vec<_> = sample.iter().map(encode_msg).collect();
    let time = |f: &dyn Fn()| {
        let t = Instant::now();
        let mut rounds = 0u64;
        while t.elapsed() < MIN_LOOP {
            f();
            rounds += 1;
        }
        t.elapsed().as_nanos() as f64 / (rounds * sample.len() as u64) as f64
    };
    let encode = time(&|| {
        for m in sample {
            std::hint::black_box(encode_msg(m));
        }
    });
    let decode = time(&|| {
        for b in &encoded {
            std::hint::black_box(decode_msg(b.clone()).expect("decodes"));
        }
    });
    (encode, decode)
}

/// A bare, unreplicated database loaded as the workload's replicas are.
fn bare_database(mix: Mix) -> Database {
    let db = Database::new(EngineProfile::h2());
    match mix {
        Mix::BankDeposits | Mix::YcsbB => bank::load(&db, ACCOUNTS).expect("bank loads"),
        Mix::Tpcc => tpcc::load(&db, &TPCC_SCALE, 5).expect("warehouse loads"),
    }
    db
}

/// sqldb timings on one bare database: the ordered (non-read-only)
/// transactions of the workload's stream applied with
/// `workloads::apply_group` in groups of `group`, and the lock-free
/// read-only path for its reads. Returns `(exec µs per ordered txn,
/// read µs per read)`; reads are zero for mixes without them.
pub fn sqldb_us(mix: Mix, seed: u64, group: usize) -> (f64, f64) {
    let db = bare_database(mix);
    let mut src = TxnSource::new(mix, seed ^ 0x5a1, 8, 2_001);
    let group = group.max(1);
    let (mut exec, mut execs) = (Duration::ZERO, 0u64);
    let (mut read, mut reads) = (Duration::ZERO, 0u64);
    let t = Instant::now();
    while t.elapsed() < MIN_LOOP * 3 {
        let txns: Vec<TxnRequest> = (0..group.max(16)).map(|_| src.next_txn()).collect();
        let (ro, rw): (Vec<&TxnRequest>, Vec<&TxnRequest>) =
            txns.iter().partition(|x| x.is_read_only());
        for r in ro {
            let s = Instant::now();
            std::hint::black_box(r.apply_read_only(&db).expect("read path serves"));
            read += s.elapsed();
            reads += 1;
        }
        for g in rw.chunks(group) {
            let s = Instant::now();
            std::hint::black_box(apply_group(&db, g));
            exec += s.elapsed();
            execs += g.len() as u64;
        }
    }
    let per = |d: Duration, n: u64| {
        if n == 0 {
            0.0
        } else {
            d.as_secs_f64() * 1e6 / n as f64
        }
    };
    (per(exec, execs), per(read, reads))
}

/// `Wal::commit` latency on a file-backed disk under `root`: `group`
/// records of the workload's envelopes per commit. Returns `(p50, p99)`
/// in microseconds.
pub fn wal_commit_us(mix: Mix, seed: u64, group: usize, root: &std::path::Path) -> (f64, f64) {
    const COMMITS: usize = 200;
    let mode = StorageMode::File {
        root: root.to_path_buf(),
    };
    let disk = Disk::open(&mode, "isolated", Duration::ZERO);
    let mut wal = Wal::open(disk);
    let mut src = TxnSource::new(mix, seed ^ 0x3a1, 8, 3_001);
    let mut index = 0i64;
    let mut us = Vec::with_capacity(COMMITS);
    for _ in 0..COMMITS {
        for _ in 0..group.max(1) {
            let env = TxnEnvelope::new(Loc::new(0), index, src.next_txn());
            wal.append(index, &env.to_value());
            index += 1;
        }
        let s = Instant::now();
        wal.commit();
        us.push(s.elapsed().as_secs_f64() * 1e6);
    }
    let _ = std::fs::remove_dir_all(root);
    (quantile(&mut us, 0.5), quantile(&mut us, 0.99))
}
