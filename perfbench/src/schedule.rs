//! Seeded inputs: the open-loop arrival schedule and the transaction
//! streams. The same seed gives the same arrivals and the same
//! transactions; the system under test only ever sees the generated
//! requests.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use shadowdb_runtime::fault::mix64;
use shadowdb_workloads::tpcc::{TpccGen, TpccScale};
use shadowdb_workloads::{bank, KvGen, KvOptions, TxnRequest};
use std::time::Duration;

/// Rows of the bank and kv tables.
pub const ACCOUNTS: usize = 1_000;

/// The TPC-C sizing of `examples/tpcc_smr.rs`: one warehouse, four
/// districts, 2,000 items.
pub const TPCC_SCALE: TpccScale = TpccScale {
    districts: 4,
    customers_per_district: 100,
    items: 2_000,
    orders_per_district: 100,
};

/// Open-loop Poisson arrivals: exponential gaps with mean `1 / rate`,
/// as offsets from the start of the schedule.
pub struct Poisson {
    rng: SmallRng,
    rate: f64,
    at: f64,
}

impl Poisson {
    /// A schedule of `rate` arrivals per second drawn from `seed`.
    pub fn new(seed: u64, rate: f64) -> Poisson {
        assert!(rate > 0.0, "offered rate must be positive");
        Poisson {
            rng: SmallRng::seed_from_u64(mix64(seed ^ 0x5ced)),
            rate,
            at: 0.0,
        }
    }
}

impl Iterator for Poisson {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        // 1 - U lies in (0, 1], so the logarithm is finite.
        let u: f64 = 1.0 - self.rng.gen_range(0.0..1.0);
        self.at += -u.ln() / self.rate;
        Some(Duration::from_secs_f64(self.at))
    }
}

/// What a workload's transactions look like.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Single-row bank deposits over [`ACCOUNTS`] rows.
    BankDeposits,
    /// YCSB-B: 95% point reads, 5% deposits, zipfian θ = 0.99.
    YcsbB,
    /// The TPC-C five-transaction mix at [`TPCC_SCALE`].
    Tpcc,
}

/// A seeded transaction stream. TPC-C rotates over `terminals`
/// generators, each with its own terminal id, so history-row ids never
/// collide across terminals; `first_terminal` keeps separate streams of
/// one run apart.
pub enum TxnSource {
    /// Bank deposits.
    Bank(bank::BankGen),
    /// YCSB-B.
    Ycsb(KvGen),
    /// TPC-C terminals, used round-robin.
    Tpcc {
        /// One generator per terminal.
        terminals: Vec<TpccGen>,
        /// The terminal the next transaction comes from.
        next: usize,
    },
}

impl TxnSource {
    /// The stream of `mix` drawn from `seed`.
    pub fn new(mix: Mix, seed: u64, terminals: usize, first_terminal: u64) -> TxnSource {
        let seed = mix64(seed);
        match mix {
            Mix::BankDeposits => TxnSource::Bank(bank::BankGen::new(seed, ACCOUNTS)),
            Mix::YcsbB => TxnSource::Ycsb(KvGen::new(seed, KvOptions::ycsb_b(ACCOUNTS))),
            Mix::Tpcc => TxnSource::Tpcc {
                terminals: (0..terminals.max(1) as u64)
                    .map(|t| TpccGen::new(mix64(seed ^ t), TPCC_SCALE, first_terminal + t))
                    .collect(),
                next: 0,
            },
        }
    }

    /// The next transaction.
    pub fn next_txn(&mut self) -> TxnRequest {
        match self {
            TxnSource::Bank(g) => g.next_txn(),
            TxnSource::Ycsb(g) => g.next_txn(),
            TxnSource::Tpcc { terminals, next } => {
                let t = *next;
                *next = (t + 1) % terminals.len();
                TxnRequest::Tpcc(terminals[t].next_txn())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a: Vec<Duration> = Poisson::new(42, 1_000.0).take(500).collect();
        let b: Vec<Duration> = Poisson::new(42, 1_000.0).take(500).collect();
        let c: Vec<Duration> = Poisson::new(43, 1_000.0).take(500).collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "another seed, another schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets never go back");
    }

    #[test]
    fn poisson_schedule_has_the_offered_rate() {
        let rate = 2_000.0;
        let n = 20_000;
        let last = Poisson::new(9, rate).take(n).last().expect("arrivals");
        let measured = n as f64 / last.as_secs_f64();
        assert!(
            (measured / rate - 1.0).abs() < 0.03,
            "measured {measured:.0}/s for {rate}/s offered"
        );
        // Exponential gaps: the coefficient of variation is about 1.
        let offs: Vec<f64> = Poisson::new(9, rate)
            .take(n)
            .map(|d| d.as_secs_f64())
            .collect();
        let gaps: Vec<f64> = offs.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn transaction_streams_are_deterministic_per_seed() {
        for mix in [Mix::BankDeposits, Mix::YcsbB, Mix::Tpcc] {
            let draw = |seed| {
                let mut s = TxnSource::new(mix, seed, 4, 1);
                (0..200).map(|_| s.next_txn()).collect::<Vec<_>>()
            };
            assert_eq!(draw(5), draw(5), "{mix:?}");
            assert_ne!(draw(5), draw(6), "{mix:?}");
        }
    }
}
