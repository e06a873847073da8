//! The four workloads and how each is deployed.
//!
//! Every workload deploys the unmodified `shadowdb::deploy` builders into
//! whatever [`Runtime`] it is given (tcpnet, the tracing wrapper around
//! it, or the simulator), with no builder-made clients, then adds the
//! benchmark's logical clients behind them.

use crate::client::{Clock, Dispatch, OpenClient};
use crate::schedule::{Mix, ACCOUNTS, TPCC_SCALE};
use shadowdb::client::Submission;
use shadowdb::deploy::{DeployOptions, DurabilityOptions, PbrDeployment, SmrDeployment};
use shadowdb::pbr::PbrOptions;
use shadowdb::smr::SmrLeaseOptions;
use shadowdb_loe::Loc;
use shadowdb_runtime::Runtime;
use shadowdb_wal::Disk;
use shadowdb_workloads::{bank, tpcc};
use std::sync::Arc;
use std::time::Duration;

/// Replication design.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Design {
    /// Primary-backup: two active replicas plus a spare.
    Pbr,
    /// State-machine replication: a replica per service machine.
    Smr,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Replication design.
    pub design: Design,
    /// Transaction mix.
    pub mix: Mix,
    /// File-backed WAL with group commit on every replica.
    pub wal: bool,
    /// SMR marker leases with the read fast path.
    pub leases: bool,
    /// Crash the primary mid-run (PBR only), with fast failure detection.
    pub failover: bool,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pbr-bank",
        design: Design::Pbr,
        mix: Mix::BankDeposits,
        wal: false,
        leases: false,
        failover: false,
    },
    Workload {
        name: "smr-tpcc-wal",
        design: Design::Smr,
        mix: Mix::Tpcc,
        wal: true,
        leases: false,
        failover: false,
    },
    Workload {
        name: "smr-ycsb-b-lease",
        design: Design::Smr,
        mix: Mix::YcsbB,
        wal: false,
        leases: true,
        failover: false,
    },
    Workload {
        name: "pbr-failover",
        design: Design::Pbr,
        mix: Mix::BankDeposits,
        wal: false,
        leases: false,
        failover: true,
    },
];

/// WAL records between durable snapshots on `smr-tpcc-wal`: small enough
/// that a run sees several snapshot cycles.
const SNAPSHOT_EVERY: i64 = 256;

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Base client retransmission timeout: short where a crash is
    /// expected (as in `examples/tcp_bank_failover.rs`), long enough
    /// elsewhere that a loaded host does not trigger resends.
    pub fn client_timeout(&self) -> Duration {
        if self.failover {
            Duration::from_millis(500)
        } else {
            Duration::from_secs(2)
        }
    }

    fn pbr_options(&self) -> PbrOptions {
        if self.failover {
            PbrOptions {
                heartbeat_every: Duration::from_millis(50),
                detect_after: Duration::from_millis(250),
                ..PbrOptions::default()
            }
        } else {
            PbrOptions::default()
        }
    }

    /// The deployment options: no builder-made clients, the workload's
    /// loader, WAL and leases as configured.
    fn deploy_options(&self) -> DeployOptions {
        let mix = self.mix;
        let mut o = DeployOptions::new(
            0,
            |_| Vec::new(),
            move |db| match mix {
                Mix::BankDeposits | Mix::YcsbB => bank::load(db, ACCOUNTS).expect("bank loads"),
                Mix::Tpcc => tpcc::load(db, &TPCC_SCALE, 5).expect("warehouse loads"),
            },
        );
        o.start_clients = false;
        o.client_timeout = self.client_timeout();
        if self.wal {
            o.durability = Some(DurabilityOptions {
                snapshot_every: SNAPSHOT_EVERY,
                ..DurabilityOptions::default()
            });
        }
        if self.leases {
            o.smr_leases = Some(SmrLeaseOptions::default());
        }
        o
    }

    /// Deploys the workload into `rt` with `pool` logical clients whose
    /// timestamps come from `clock`.
    pub fn deploy<R: Runtime + ?Sized>(&self, rt: &mut R, pool: usize, clock: Clock) -> Deployed {
        let options = self.deploy_options();
        let (replicas, tob, disks) = match self.design {
            Design::Pbr => {
                let d = PbrDeployment::build(rt, &options, self.pbr_options());
                (d.replicas, d.tob, d.disks)
            }
            Design::Smr => {
                let d = SmrDeployment::build(rt, &options);
                (d.replicas, d.tob, d.disks)
            }
        };
        let submission = match self.design {
            Design::Pbr => Submission::Pbr {
                replicas: replicas.clone(),
            },
            Design::Smr => Submission::Smr {
                servers: tob.servers.clone(),
                replicas: if self.leases {
                    replicas.clone()
                } else {
                    Vec::new()
                },
            },
        };
        let dispatch = Dispatch::new(pool, clock);
        let clients = (0..pool)
            .map(|_| {
                OpenClient::new(dispatch.clone(), submission.clone(), self.client_timeout())
                    .attach(|p| rt.add_node(p))
            })
            .collect();
        Deployed {
            replicas,
            service_locs: tob.service_locs,
            clients,
            disks,
            dispatch,
        }
    }
}

/// A deployed workload.
pub struct Deployed {
    /// Replica locations (PBR: primary, backup, spare).
    pub replicas: Vec<Loc>,
    /// Broadcast-service locations: per machine, server then the Paxos
    /// replica, leader and acceptor.
    pub service_locs: Vec<Loc>,
    /// The logical clients.
    pub clients: Vec<Loc>,
    /// Replica disks (WAL workloads only).
    pub disks: Vec<Disk>,
    /// The generator-to-client queue.
    pub dispatch: Arc<Dispatch>,
}

impl Deployed {
    /// Total WAL syncs across replica disks.
    pub fn wal_syncs(&self) -> u64 {
        self.disks.iter().map(|d| d.sync_count()).sum()
    }
}
