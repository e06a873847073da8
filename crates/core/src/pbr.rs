//! Primary-backup replication (Sec. III-A).
//!
//! Normal case, hand-written as in the paper: (i) the client sends `T` to
//! the primary; (ii) the primary, on first reception, executes and commits
//! `T` and forwards it to the backups; (iii) the backups execute, commit,
//! and acknowledge; (iv) the primary replies to the client once *all*
//! (recovered) backups acknowledged. Execution is sequential at every
//! replica; duplicates are no-ops via per-client sequence numbers.
//!
//! Failure handling runs through the verified broadcast service:
//!
//! 1. a replica suspecting a crash **stops** executing in the current
//!    configuration;
//! 2. it broadcasts a new-configuration proposal tagged with the current
//!    configuration's sequence number;
//! 3. replicas adopt only the **first** delivered proposal per
//!    configuration, then exchange `(g+1, seq_r)` election messages;
//! 4. the member with the largest executed-transaction sequence number
//!    (ties → smallest identifier) becomes primary;
//! 5. the new primary sends missing transactions from its cache, or a full
//!    snapshot in ~50 KB batches when the cache does not reach far enough;
//! 6. backups acknowledge;
//! 7. the primary resumes — immediately after the *first* acknowledgment
//!    when overlapped state transfer is enabled (possible with ≥3
//!    replicas), else after all of them.

use crate::msgs::{
    config_reply_msg, reply_msg, sql_to_value, stale_config_msg, value_to_sql, ConfigCommand,
    ReplicaConfig, TxnEnvelope, ACK_HEADER, CATCHUP_HEADER, CONFIG_QUERY_HEADER, ELECT_HEADER,
    FORWARD_HEADER, HB_TIMER_HEADER, HEARTBEAT_HEADER, RECOVERY_ACK_HEADER, REFETCH_HEADER,
    SNAPSHOT2_HEADER, SNAPSHOT_HEADER, SUBMIT_HEADER,
};
use crate::shard::{ShardRole, TwoPcEngine};
use shadowdb_eventml::process::HasherAdapter;
use shadowdb_eventml::{cached_header, Ctx, Msg, Process, SendInstr, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_sqldb::{Database, RowBatch, SqlValue};
use shadowdb_tob::{broadcast_msg, parse_deliver, parse_subok, Delivery, InOrderBuffer};
use shadowdb_wal::{Disk, Wal};
use shadowdb_workloads::{apply_group, TxnOutcome, TxnRequest};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

/// A shared log of `(configuration seq, replica)` pairs, appended the
/// first time a replica executes a client transaction as primary in a
/// configuration. Safety harnesses assert at most one replica per seq.
pub type PrimaryProbe = Arc<parking_lot::Mutex<Vec<(i64, Loc)>>>;

/// A shared log of `(config seq or lease term, replica, served_us,
/// lease_until_us)` rows, appended each time a replica serves a read on
/// the lease-protected fast path. Safety harnesses assert that rows from
/// *different* replicas carry pairwise-disjoint `[served, until]`
/// intervals — no two nodes ever believe they hold the lease at once.
pub type LeaseProbe = Arc<parking_lot::Mutex<Vec<(i64, Loc, i64, i64)>>>;

/// Which transfer path a donor used to bring a rejoining replica up to
/// date. Durability soaks assert that a disk-recovered replica took the
/// suffix-only `Catchup` path and never needed a full `Snapshot` — the
/// point of the WAL is that restart-from-disk misses only a suffix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferKind {
    /// The donor replayed missing transactions from its cache (or, under
    /// SMR, its recent-delivery cache).
    Catchup,
    /// The donor streamed a full state snapshot.
    Snapshot,
}

/// A shared log of `(receiver, transfer kind)` pairs, appended by the
/// donor each time it answers a state-transfer request.
pub type TransferProbe = Arc<parking_lot::Mutex<Vec<(Loc, TransferKind)>>>;

/// Tag of a WAL record holding an executed transaction envelope.
pub(crate) const WREC_TXN: i64 = 0;
/// Tag of a WAL record holding an adopted configuration (the replica's
/// position on the config chain must recover along with its data).
pub(crate) const WREC_CONFIG: i64 = 1;

/// Tuning knobs for a PBR replica.
#[derive(Clone, Debug)]
pub struct PbrOptions {
    /// Heartbeat period.
    pub heartbeat_every: Duration,
    /// Silence threshold after which a peer is suspected ("detection time
    /// is configurable"; Fig. 10(a) uses 10 s).
    pub detect_after: Duration,
    /// Executed-transaction cache size for catch-up ("each replica only
    /// caches a limited number of executed transactions").
    pub cache_limit: usize,
    /// State-transfer batch size in bytes (~50 KB in the paper).
    pub transfer_batch_bytes: usize,
    /// Resume normal processing after the first recovered backup instead
    /// of all of them (Sec. III-A's overlapped state transfer).
    pub overlapped_transfer: bool,
    /// Optional safety probe: records `(config seq, replica)` the first
    /// time this replica executes as primary in each configuration.
    /// Excluded from the digest (it observes state, it is not state).
    pub probe: Option<PrimaryProbe>,
    /// Optional transfer probe: the donor records which transfer path it
    /// used per rejoin request. Excluded from the digest likewise.
    pub transfer_probe: Option<TransferProbe>,
    /// Enable the lease-based read fast path: the primary answers
    /// read-only transactions from local state, without forwarding, while
    /// it provably holds the group's read lease. Off by default — the
    /// seed's behavior is byte-identical with this unset.
    pub read_leases: bool,
    /// Lease length `D`. A grant echoed at primary-clock time `t` covers
    /// fast reads until `t + D - lease_margin`; a promoted primary waits
    /// `D + lease_margin` after finishing recovery before serving.
    pub lease_duration: Duration,
    /// Clock-error allowance subtracted from every lease and added to
    /// every wait-out. Zero is sound on simnet (one virtual clock);
    /// real-clock runtimes must set it to cover their worst-case skew.
    pub lease_margin: Duration,
    /// Optional safety probe recording every fast-path read's lease
    /// interval. Excluded from the digest (observes state, is not state).
    pub lease_probe: Option<LeaseProbe>,
    /// Optional audit sink: every fast-path read additionally emits an
    /// `sdb/lease` record to this location. The model checker points this
    /// at its observation port — under state forking a shared in-memory
    /// probe would leak writes across branches, while emitted messages
    /// fork with the execution.
    pub lease_audit: Option<Loc>,
}

impl Default for PbrOptions {
    fn default() -> Self {
        PbrOptions {
            heartbeat_every: Duration::from_millis(1_000),
            detect_after: Duration::from_secs(10),
            cache_limit: 10_000,
            transfer_batch_bytes: 50_000,
            overlapped_transfer: false,
            probe: None,
            transfer_probe: None,
            read_leases: false,
            lease_duration: Duration::from_secs(4),
            lease_margin: Duration::ZERO,
            lease_probe: None,
            lease_audit: None,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Mode {
    /// Normal-case processing.
    Normal,
    /// Stopped: suspicion raised, awaiting the configuration decision.
    Stopped,
    /// Recovering: election/catch-up in the new configuration.
    Recovering,
    /// Not a member of the current configuration.
    Idle,
}

struct Pending {
    env: TxnEnvelope,
    outcome: TxnOutcome,
    waiting: BTreeSet<Loc>,
    /// Sends computed at execute time (2PC votes, decisions, replies to
    /// other groups) that must not escape before the backups acknowledged:
    /// they reflect state the group has not durably replicated yet.
    extra: Vec<SendInstr>,
    /// Suppress the client reply on release (2PC records answer through
    /// the protocol, not the reply path).
    suppress_reply: bool,
}

/// A primary-backup ShadowDB replica.
pub struct PbrReplica {
    db: Database,
    options: PbrOptions,
    config: ReplicaConfig,
    spares: Vec<Loc>,
    tob_servers: Vec<Loc>,
    mode: Mode,
    /// Number of transactions executed (the election criterion).
    executed: i64,
    /// Cache of executed transactions for catch-up; `log[0]` has index
    /// `log_start`.
    log: VecDeque<TxnEnvelope>,
    log_start: i64,
    /// client -> (last cseq, its outcome) for duplicate suppression.
    last_reply: HashMap<Loc, (i64, bool, Vec<SqlValue>)>,
    /// Primary: transactions awaiting backup acks, by index.
    pending: BTreeMap<i64, Pending>,
    /// Primary: backups currently participating in acknowledgments.
    active_backups: BTreeSet<Loc>,
    /// Backup: out-of-order forwards buffered by index.
    forward_buf: BTreeMap<i64, TxnEnvelope>,
    /// Failure detection.
    last_heard: HashMap<Loc, VTime>,
    hb_armed: bool,
    /// Reconfiguration machinery.
    tob_in: InOrderBuffer,
    tob_msgid: i64,
    election: HashMap<Loc, i64>,
    recovery_acks: BTreeSet<Loc>,
    /// Election tie-break preference installed by the last `Promote`
    /// command; cleared by every other configuration adoption.
    promote_pref: Option<Loc>,
    /// A joiner created mid-run awaits its first `tob/subok` to anchor
    /// `tob_in` at the broadcast seq its dynamic subscription starts at.
    join_sync: bool,
    /// Snapshot reception state: chunks received so far.
    snap_chunks: BTreeMap<i64, bytes::Bytes>,
    snap_total: Option<(i64, i64)>, // (total chunks, executed count)
    /// Last configuration seq this replica reported to the probe.
    probe_last: Option<i64>,
    /// Sharded deployments: this group's place in the shard map.
    role: Option<ShardRole>,
    /// The replicated 2PC state machine (present iff `role` is).
    engine: Option<TwoPcEngine>,
    /// Per-target-shard emission counters, advanced in lockstep at every
    /// member so a promoted primary continues the sequence monotonically.
    twopc_seq: Vec<i64>,
    /// Sends rendered while executing 2PC records; the primary attaches
    /// them to the pending entry (ack-gated), everyone else drops them.
    twopc_outbox: Vec<SendInstr>,
    /// Engine state received alongside a sharded snapshot.
    snap_engine: Option<Value>,
    /// Durability plane: the write-ahead log, when this replica persists
    /// its execution. Appends accumulate across a step and are fsynced
    /// once at the end of it (group commit at the group-apply boundary),
    /// before any reply the step produced is released.
    wal: Option<Wal>,
    /// Monotone WAL record index (transactions and config adoptions share
    /// one sequence; `executed` alone cannot index config records).
    wal_index: i64,
    /// WAL index of the last durable snapshot (truncation point).
    wal_snap_at: i64,
    /// Take a durable snapshot every this many WAL records.
    snapshot_every: i64,
    /// Set by disk recovery: ask the group for the suffix the disk missed
    /// (re-sent on the heartbeat timer until recovery completes).
    need_refetch: bool,
    /// Primary: per-peer lease grants — the latest of our own heartbeat
    /// timestamps each member of the current configuration has echoed
    /// back. The lease holds while *every* other member's echo is fresh;
    /// a peer that adopts a newer configuration stops echoing, so the
    /// lease self-expires within `lease_duration` of any membership
    /// change. Timing state: excluded from the digest, like `last_heard`.
    lease_echo: HashMap<Loc, VTime>,
    /// Backup: the latest primary heartbeat timestamp seen in the current
    /// configuration — echoed back on our own heartbeats.
    primary_ts: VTime,
    /// No fast-path reads before this instant: a primary promoted by
    /// recovery waits out the previous configuration's largest possible
    /// outstanding lease.
    lease_wait_until: VTime,
    /// Deferred CPU cost (transaction execution, snapshot work).
    step_cost: Duration,
}

impl PbrReplica {
    /// Creates a replica over `db` in the initial configuration.
    /// `spares` are replacement candidates for crashed members;
    /// `tob_servers` are the broadcast service's entry points.
    pub fn new(
        db: Database,
        config: ReplicaConfig,
        spares: Vec<Loc>,
        tob_servers: Vec<Loc>,
        options: PbrOptions,
    ) -> PbrReplica {
        PbrReplica {
            db,
            options,
            config,
            spares,
            tob_servers,
            mode: Mode::Normal,
            executed: 0,
            log: VecDeque::new(),
            log_start: 0,
            last_reply: HashMap::new(),
            pending: BTreeMap::new(),
            active_backups: BTreeSet::new(),
            forward_buf: BTreeMap::new(),
            last_heard: HashMap::new(),
            hb_armed: false,
            tob_in: InOrderBuffer::new(),
            tob_msgid: 0,
            election: HashMap::new(),
            recovery_acks: BTreeSet::new(),
            promote_pref: None,
            join_sync: false,
            snap_chunks: BTreeMap::new(),
            snap_total: None,
            probe_last: None,
            role: None,
            engine: None,
            twopc_seq: Vec::new(),
            twopc_outbox: Vec::new(),
            snap_engine: None,
            wal: None,
            wal_index: 0,
            wal_snap_at: 0,
            snapshot_every: i64::MAX,
            need_refetch: false,
            lease_echo: HashMap::new(),
            primary_ts: VTime::ZERO,
            lease_wait_until: VTime::ZERO,
            step_cost: Duration::ZERO,
        }
    }

    /// Creates a replica joining a running group mid-stream. It starts
    /// outside any configuration (`seq: -1`, no members, hence `Idle`) and
    /// fast-forwards onto the config chain from the first command its
    /// dynamic TOB subscription delivers — commands carry the explicit
    /// successor membership precisely so a joiner need not know the
    /// history it missed. The deployment must subscribe it at the TOB
    /// servers *before* broadcasting `AddReplica`, so the command that
    /// names it is guaranteed to reach it.
    pub fn joiner(db: Database, tob_servers: Vec<Loc>, options: PbrOptions) -> PbrReplica {
        let mut r = PbrReplica::new(
            db,
            ReplicaConfig {
                seq: -1,
                members: Vec::new(),
            },
            Vec::new(),
            tob_servers,
            options,
        );
        r.join_sync = true;
        r
    }

    /// Places this replica's group inside a sharded deployment: its shard,
    /// the shard map, and routes to every other group. Activates the 2PC
    /// engine on the replicated execution path.
    pub fn with_role(mut self, role: ShardRole) -> PbrReplica {
        self.engine = Some(TwoPcEngine::new(role.map, role.shard, role.probe.clone()));
        self.twopc_seq = vec![0; role.map.shards()];
        self.role = Some(role);
        self
    }

    /// Attaches a write-ahead log: every executed transaction and adopted
    /// configuration is appended, fsynced once per step (group commit),
    /// with a durable snapshot (and log truncation) every
    /// `snapshot_every` records.
    pub fn with_wal(mut self, disk: Disk, snapshot_every: i64) -> PbrReplica {
        self.snapshot_every = snapshot_every.max(1);
        self.wal = Some(Wal::open(disk));
        self
    }

    /// Rebuilds a replica from its durable state after a crash: install
    /// the latest snapshot, replay the logged suffix, then rejoin the
    /// group for whatever the disk missed (the `sdb/refetch` handshake —
    /// catch-up only, unless the primary's cache no longer reaches back
    /// far enough). The caller passes the arguments the original replica
    /// was built with; `slf` is the location the replica runs at (replay
    /// of 2PC records renders protocol sends, which need an identity,
    /// before the first step supplies a context).
    #[allow(clippy::too_many_arguments)]
    pub fn recover_from(
        db: Database,
        config: ReplicaConfig,
        spares: Vec<Loc>,
        tob_servers: Vec<Loc>,
        options: PbrOptions,
        role: Option<ShardRole>,
        slf: Loc,
        disk: Disk,
        snapshot_every: i64,
    ) -> PbrReplica {
        let rec = shadowdb_wal::recover(&disk);
        let mut r = PbrReplica::new(db, config, spares, tob_servers, options);
        if let Some(role) = role {
            r = r.with_role(role);
        }
        if let Some((_, blob)) = &rec.snapshot {
            r.install_durable_blob(blob);
        }
        for (_, body) in &rec.records {
            r.replay_record(slf, body);
        }
        r.wal_index = rec.high_index().max(0);
        r.wal_snap_at = rec.snapshot.as_ref().map(|(i, _)| *i).unwrap_or(0);
        r.snapshot_every = snapshot_every.max(1);
        r.wal = Some(Wal::open(disk));
        // The disk knows everything up to the crash; the group has moved
        // on. Rejoin: re-anchor the TOB subscription and ask the primary
        // for the missed suffix.
        r.mode = Mode::Recovering;
        r.join_sync = true;
        r.need_refetch = true;
        r
    }

    /// Serializes everything a durable snapshot must carry: `executed`,
    /// the config-chain position, the per-client reply cache (without it
    /// a recovered replica would re-execute a retransmitted transaction
    /// it already answered), 2PC protocol state when sharded, and the row
    /// data. Reply-cache entries are sorted so the blob is deterministic.
    fn durable_blob(&self, db_bytes: bytes::Bytes) -> Value {
        type ReplyEntry = (i64, bool, Vec<SqlValue>);
        let mut entries: Vec<(&Loc, &ReplyEntry)> = self.last_reply.iter().collect();
        entries.sort_by_key(|(l, _)| **l);
        let replies = Value::list(entries.into_iter().map(
            |(client, (cseq, committed, result))| {
                Value::pair(
                    Value::Loc(*client),
                    Value::pair(
                        Value::Int(*cseq),
                        Value::pair(
                            Value::Bool(*committed),
                            Value::list(result.iter().map(sql_to_value)),
                        ),
                    ),
                )
            },
        ));
        let shard = match &self.engine {
            Some(e) => Value::pair(
                Value::list(self.twopc_seq.iter().map(|s| Value::Int(*s))),
                e.to_value(),
            ),
            None => Value::Unit,
        };
        Value::pair(
            Value::Int(self.executed),
            Value::pair(
                self.config.to_value(),
                Value::pair(replies, Value::pair(shard, Value::Bytes(db_bytes))),
            ),
        )
    }

    /// Restores the state [`Self::durable_blob`] captured. Tolerant of
    /// malformed pieces (a corrupt snapshot file never reaches here — the
    /// WAL checksums it — but recovery stays total regardless).
    fn install_durable_blob(&mut self, blob: &Value) {
        let (executed, rest) = blob.unpair();
        let (config, rest) = rest.unpair();
        let (replies, rest) = rest.unpair();
        let (shard, db_bytes) = rest.unpair();
        if let Some(c) = ReplicaConfig::from_value(config) {
            self.config = c;
        }
        if let Some(bytes) = db_bytes.as_bytes() {
            if let Ok(snapshot) = shadowdb_sqldb::Snapshot::from_bytes(bytes.clone()) {
                let _ = self.db.restore(&snapshot);
            }
        }
        self.executed = executed.int();
        self.log.clear();
        self.log_start = self.executed;
        if let Some(list) = replies.as_list() {
            for e in list {
                let (client, rest) = e.unpair();
                let (cseq, rest) = rest.unpair();
                let (committed, result) = rest.unpair();
                let vals: Vec<SqlValue> = result.elems().iter().filter_map(value_to_sql).collect();
                self.last_reply.insert(
                    client.loc(),
                    (cseq.int(), committed.as_bool().unwrap_or(false), vals),
                );
            }
        }
        if self.role.is_some() && !matches!(shard, Value::Unit) {
            self.adopt_shard_state(shard.clone());
        }
    }

    /// Replays one WAL record onto local state. Nothing is sent: 2PC
    /// replay advances the emission counters in lockstep (exactly as a
    /// backup does) and drops the rendered sends.
    fn replay_record(&mut self, slf: Loc, body: &Value) {
        let (tag, payload) = body.unpair();
        match tag.int() {
            WREC_TXN => {
                if let Some(env) = TxnEnvelope::from_value(payload) {
                    self.execute_txn(slf, &env);
                    self.twopc_outbox.clear();
                }
            }
            WREC_CONFIG => {
                if let Some(c) = ReplicaConfig::from_value(payload) {
                    self.config = c;
                }
            }
            _ => {}
        }
    }

    /// The kick-off message a deployment sends each replica.
    pub fn start_msg() -> Msg {
        Msg::new(HB_TIMER_HEADER, Value::Unit)
    }

    /// Number of transactions executed (for assertions in tests).
    pub fn executed(&self) -> i64 {
        self.executed
    }

    /// Current configuration (for assertions in tests).
    pub fn config(&self) -> &ReplicaConfig {
        &self.config
    }

    /// A handle to this replica's database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    fn is_primary(&self, slf: Loc) -> bool {
        self.config.primary() == slf
    }

    fn charge(&mut self, d: Duration) {
        self.step_cost += d;
    }

    /// Executes a transaction locally, recording it in the log and reply
    /// cache.
    fn execute_txn(&mut self, slf: Loc, env: &TxnEnvelope) -> (bool, Vec<SqlValue>) {
        self.execute_txn_group(slf, std::slice::from_ref(env))
            .pop()
            .expect("one outcome per envelope")
    }

    /// Executes a run of transactions, group-applying consecutive plain
    /// requests under ONE engine transaction (one commit for the whole
    /// run), with per-transaction log and reply bookkeeping identical to
    /// sequential execution. Replica execution is single-threaded, so the
    /// grouped answers match unbatched ones. In a sharded deployment, 2PC
    /// records break the run and step the protocol engine instead.
    fn execute_txn_group(&mut self, slf: Loc, envs: &[TxnEnvelope]) -> Vec<(bool, Vec<SqlValue>)> {
        let mut outcomes = Vec::with_capacity(envs.len());
        let mut run_start = 0usize;
        for (i, env) in envs.iter().enumerate() {
            if self.engine.is_some() && matches!(env.txn, TxnRequest::TwoPc(_)) {
                self.apply_plain_run(&envs[run_start..i], &mut outcomes);
                run_start = i + 1;
                outcomes.push(self.execute_twopc(slf, env));
            }
        }
        self.apply_plain_run(&envs[run_start..], &mut outcomes);
        outcomes
    }

    fn apply_plain_run(&mut self, envs: &[TxnEnvelope], outcomes: &mut Vec<(bool, Vec<SqlValue>)>) {
        if envs.is_empty() {
            return;
        }
        let reqs: Vec<&TxnRequest> = envs.iter().map(|e| &e.txn).collect();
        let results = apply_group(&self.db, &reqs);
        for (env, res) in envs.iter().zip(results) {
            let (committed, result, cost) = res
                .map(|o| (o.committed, o.result, o.cost))
                .unwrap_or_else(|e| (false, vec![SqlValue::Text(e.to_string())], Duration::ZERO));
            self.charge(cost);
            self.record_executed(env);
            self.last_reply
                .insert(env.client, (env.cseq, committed, result.clone()));
            outcomes.push((committed, result));
        }
    }

    /// Steps the 2PC engine on an ordered record and renders the owed
    /// actions into the outbox, advancing the emission counters — at every
    /// member, so counters stay in lockstep; non-primaries drop the
    /// rendered sends afterwards.
    fn execute_twopc(&mut self, slf: Loc, env: &TxnEnvelope) -> (bool, Vec<SqlValue>) {
        let TxnRequest::TwoPc(rec) = &env.txn else {
            unreachable!("caller matched TwoPc");
        };
        let (actions, cost) = self
            .engine
            .as_mut()
            .expect("engine present on the 2PC path")
            .step(rec, &self.db);
        self.charge(cost);
        self.record_executed(env);
        // Placeholder entry: duplicates of 2PC records re-drive the
        // protocol (see `reply_duplicate`), never this cached value. The
        // recorded cseq is a high-water mark — a reordered older record
        // must not regress it, or a genuine duplicate of the newer one
        // would be mistaken for fresh work forever.
        let hw = self
            .last_reply
            .get(&env.client)
            .map_or(env.cseq, |(l, _, _)| env.cseq.max(*l));
        self.last_reply.insert(env.client, (hw, true, Vec::new()));
        let role = self.role.as_ref().expect("role present on the 2PC path");
        let instrs = role.render(slf, &actions, &mut self.twopc_seq);
        self.twopc_outbox.extend(instrs);
        (true, Vec::new())
    }

    fn record_executed(&mut self, env: &TxnEnvelope) {
        self.executed += 1;
        if let Some(wal) = self.wal.as_mut() {
            let body = Value::pair(Value::Int(WREC_TXN), env.to_value());
            self.wal_index += 1;
            wal.append(self.wal_index, &body);
        }
        self.log.push_back(env.clone());
        while self.log.len() > self.options.cache_limit {
            self.log.pop_front();
            self.log_start += 1;
        }
    }

    /// End-of-step durability: one fsync covers every append the step
    /// made (group commit at the group-apply boundary — a drained batch
    /// of N forwards costs one fsync, not N), and it runs before the
    /// runtime dispatches the step's sends, so no reply escapes ahead of
    /// the log. Every `snapshot_every` records the log is folded into a
    /// durable snapshot instead (which truncates it).
    fn flush_wal(&mut self) {
        if self.wal.is_none() {
            return;
        }
        if self.wal_index - self.wal_snap_at >= self.snapshot_every {
            let (db_bytes, rows) = self.db.snapshot_bytes();
            let costs = self.db.profile().costs;
            self.charge(Duration::from_micros(costs.scan_row_us * rows as u64));
            let blob = self.durable_blob(db_bytes);
            let idx = self.wal_index;
            let cost = self
                .wal
                .as_mut()
                .expect("checked")
                .save_snapshot(idx, &blob);
            self.wal_snap_at = idx;
            self.charge(cost);
        } else {
            let w = self.wal.as_mut().expect("checked");
            if w.pending() > 0 {
                let cost = w.commit();
                self.charge(cost);
            }
        }
    }

    fn note_transfer(&mut self, to: Loc, kind: TransferKind) {
        if let Some(p) = &self.options.transfer_probe {
            p.lock().push((to, kind));
        }
    }

    // -- read-lease fast path ----------------------------------------------

    /// If this replica currently holds the group's read lease, the
    /// instant it expires; `None` when it may not serve fast-path reads.
    ///
    /// The lease holds iff every *other member of the configuration* has
    /// echoed one of our grant timestamps within the last
    /// `lease_duration - lease_margin`. Requiring all members (not just
    /// the acknowledging backups) is what makes hand-off sound: any
    /// reconfiguration excluding us is proposed by a member that stopped
    /// hearing us `detect_after` ago, so its echo — which our lease
    /// depends on — froze before the proposal, and the successor primary's
    /// wait-out (anchored at its post-recovery Normal transition, which
    /// follows every new member's adoption) strictly covers our expiry.
    fn lease_until(&self, ctx: &Ctx) -> Option<VTime> {
        let o = &self.options;
        if !o.read_leases || self.mode != Mode::Normal || ctx.now < self.lease_wait_until {
            return None;
        }
        let horizon = o.lease_duration.saturating_sub(o.lease_margin);
        let mut until = ctx.now + horizon;
        for m in &self.config.members {
            if *m == ctx.slf {
                continue;
            }
            let expiry = *self.lease_echo.get(m)? + horizon;
            if ctx.now >= expiry {
                return None;
            }
            until = until.min(expiry);
        }
        Some(until)
    }

    /// Records a served fast-path read with the probe and audit sink.
    fn note_lease_read(&mut self, ctx: &Ctx, until: VTime, outs: &mut Vec<SendInstr>) {
        let (served_us, until_us) = (ctx.now.as_micros() as i64, until.as_micros() as i64);
        if let Some(p) = &self.options.lease_probe {
            p.lock()
                .push((self.config.seq, ctx.slf, served_us, until_us));
        }
        if let Some(sink) = self.options.lease_audit {
            outs.push(SendInstr::now(
                sink,
                crate::msgs::lease_audit_msg(self.config.seq, ctx.slf, served_us, until_us),
            ));
        }
    }

    // -- normal case -------------------------------------------------------

    fn on_submit(&mut self, ctx: &Ctx, body: &Value, outs: &mut Vec<SendInstr>) {
        if self.mode != Mode::Normal || !self.is_primary(ctx.slf) {
            // A settled non-primary (a backup, or a replica the chain left
            // behind) NACKs with its configuration so the client can chase
            // the chain; mid-election modes stay silent — the answer is
            // still being decided and a guess could point backwards.
            let settled = self.mode == Mode::Normal
                || (self.mode == Mode::Idle && !self.config.members.is_empty());
            if settled {
                if let Some(env) = TxnEnvelope::from_value(body) {
                    outs.push(SendInstr::now(
                        env.client,
                        stale_config_msg(ctx.slf, env.cseq, &self.config),
                    ));
                }
            }
            return;
        }
        let Some(env) = TxnEnvelope::from_value(body) else {
            return;
        };
        // Duplicate suppression by client sequence number. Peer 2PC
        // records are exempt from the lower-than-last drop: their cseq is
        // the sender's emission counter, and two sends from the same peer
        // can reorder in flight, so an "old" record may carry a step the
        // engine has never seen. Stepping it is safe — the engine is
        // idempotent — while dropping it would stall the transaction
        // until a client retransmission re-drives the protocol.
        let is_2pc = self.engine.is_some() && matches!(env.txn, TxnRequest::TwoPc(_));
        if let Some((last, _, _)) = self.last_reply.get(&env.client) {
            if env.cseq == *last {
                self.reply_duplicate(ctx, &env, outs);
                return;
            }
            if env.cseq < *last && !is_2pc {
                return;
            }
        }
        // Lease-protected read fast path: answer from local state, no
        // forwarding, no ack round. Three gates beyond the lease itself:
        // the client's read-only claim, re-checked by `apply_read_only`
        // (which refuses anything that isn't a lockless SELECT — a
        // mis-flagged transaction falls through to ordered execution);
        // and no unacknowledged *write* pending — an executed write the
        // backups have not all acked is visible locally but could be lost
        // in a failover, and a read that observed it would go
        // non-monotonic when a successor primary without it answers the
        // client's next read. Pending read-only entries are harmless
        // (they left no mark on the database) and must not close the
        // gate: under pipelined load the ordered read traffic itself
        // would otherwise keep `pending` occupied and the fast path
        // would never open.
        if env.read_only && self.pending.values().all(|p| p.env.read_only) {
            if let Some(until) = self.lease_until(ctx) {
                if let Some(out) = env.txn.apply_read_only(&self.db) {
                    self.charge(out.cost);
                    self.note_lease_read(ctx, until, outs);
                    outs.push(SendInstr::now(
                        env.client,
                        reply_msg(ctx.slf, env.cseq, out.committed, &out.result),
                    ));
                    return;
                }
            }
        }
        // Safety probe: this replica just executed a client transaction
        // while believing itself primary of the current configuration.
        if self.probe_last != Some(self.config.seq) {
            self.probe_last = Some(self.config.seq);
            if let Some(probe) = &self.options.probe {
                probe.lock().push((self.config.seq, ctx.slf));
            }
        }
        let (committed, result) = self.execute_txn(ctx.slf, &env);
        let extra = std::mem::take(&mut self.twopc_outbox);
        let idx = self.executed;
        if self.active_backups.is_empty() {
            if is_2pc {
                // No backups to wait for: the engine's sends go out now.
                outs.extend(extra);
            } else {
                outs.push(SendInstr::now(
                    env.client,
                    reply_msg(ctx.slf, env.cseq, committed, &result),
                ));
            }
        } else {
            for b in self.config.backups() {
                outs.push(SendInstr::now(
                    *b,
                    Msg::new(
                        FORWARD_HEADER,
                        Value::pair(
                            Value::Int(self.config.seq),
                            Value::pair(Value::Int(idx), env.to_value()),
                        ),
                    ),
                ));
            }
            self.pending.insert(
                idx,
                Pending {
                    env,
                    outcome: TxnOutcome {
                        committed,
                        result,
                        cost: Duration::ZERO,
                    },
                    waiting: self.active_backups.clone(),
                    extra,
                    suppress_reply: is_2pc,
                },
            );
        }
    }

    /// Answers a retransmission of the last-seen request. Plain requests
    /// get the cached reply; 2PC records instead re-derive the owed
    /// protocol sends from replicated state (the cached entry is a
    /// placeholder — the real answer flows through the protocol).
    fn reply_duplicate(&mut self, ctx: &Ctx, env: &TxnEnvelope, outs: &mut Vec<SendInstr>) {
        if self.engine.is_some() {
            if let TxnRequest::TwoPc(rec) = &env.txn {
                self.redrive_twopc(ctx, rec.txnid(), outs);
                return;
            }
        }
        // `last_reply` is written at *execution* time, but the answer is
        // only owed once the backups acknowledged. While the client's
        // transaction is still pending, the cached outcome is not durable:
        // a partially partitioned primary (clients reachable, backups not)
        // that answered a retransmission from the cache would acknowledge
        // a write its successor never saw. Stay silent — the ack flush
        // replies here, or the client's broadcast resend reaches whoever
        // takes over.
        if self.pending.values().any(|p| p.env.client == env.client) {
            return;
        }
        if let Some((last, committed, result)) = self.last_reply.get(&env.client) {
            outs.push(SendInstr::now(
                env.client,
                reply_msg(ctx.slf, *last, *committed, result),
            ));
        }
    }

    /// Re-emits whatever the group currently owes for `txnid`. If unacked
    /// forwards are outstanding the emission parks on the newest pending
    /// entry instead of going out directly: the state it reflects becomes
    /// durable only once the backups acknowledged everything executed so
    /// far, and backups apply forwards in index order, so the newest
    /// entry's acks imply all older entries were executed there too.
    fn redrive_twopc(
        &mut self,
        ctx: &Ctx,
        txnid: shadowdb_workloads::TxnId,
        outs: &mut Vec<SendInstr>,
    ) {
        let (Some(role), Some(engine)) = (&self.role, &self.engine) else {
            return;
        };
        let actions = engine.emissions(txnid);
        let instrs = role.render(ctx.slf, &actions, &mut self.twopc_seq);
        if let Some(p) = self.pending.values_mut().next_back() {
            p.extra.extend(instrs);
        } else {
            outs.extend(instrs);
        }
    }

    fn on_forward(&mut self, ctx: &Ctx, body: &Value, outs: &mut Vec<SendInstr>) {
        let (cfg, rest) = body.unpair();
        if cfg.int() != self.config.seq || self.is_primary(ctx.slf) {
            return; // stale configuration
        }
        if self.mode == Mode::Stopped || self.mode == Mode::Idle {
            return;
        }
        let (idx, env) = rest.unpair();
        let Some(env) = TxnEnvelope::from_value(env) else {
            return;
        };
        self.forward_buf.insert(idx.int(), env);
        self.drain_forwards(ctx, outs);
    }

    /// Applies buffered forwards in index order (a recovering backup
    /// buffers them until its snapshot arrives). Consecutive forwards are
    /// group-applied under one engine commit; a group breaks when a client
    /// reappears, so per-client reply bookkeeping stays exact per cseq.
    fn drain_forwards(&mut self, ctx: &Ctx, outs: &mut Vec<SendInstr>) {
        if self.mode != Mode::Normal {
            return;
        }
        loop {
            let mut batch: Vec<TxnEnvelope> = Vec::new();
            loop {
                let idx = self.executed + 1 + batch.len() as i64;
                let Some(env) = self.forward_buf.remove(&idx) else {
                    break;
                };
                if batch.iter().any(|b| b.client == env.client) {
                    self.forward_buf.insert(idx, env);
                    break;
                }
                batch.push(env);
            }
            if batch.is_empty() {
                return;
            }
            let first = self.executed + 1;
            self.execute_txn_group(ctx.slf, &batch);
            // Backups advance the 2PC emission counters in lockstep but
            // never send: emission is the (acked) primary's job.
            self.twopc_outbox.clear();
            for off in 0..batch.len() as i64 {
                outs.push(SendInstr::now(
                    self.config.primary(),
                    Msg::new(
                        ACK_HEADER,
                        Value::pair(
                            Value::Int(self.config.seq),
                            Value::pair(Value::Int(first + off), Value::Loc(ctx.slf)),
                        ),
                    ),
                ));
            }
        }
    }

    fn on_ack(&mut self, ctx: &Ctx, body: &Value, outs: &mut Vec<SendInstr>) {
        let (cfg, rest) = body.unpair();
        if cfg.int() != self.config.seq || !self.is_primary(ctx.slf) {
            return;
        }
        let (idx, from) = rest.unpair();
        let (idx, from) = (idx.int(), from.loc());
        // Backups apply forwards strictly in index order, so an ack of
        // `idx` implies every lower index was executed there too — treat
        // it as cumulative. This is what un-stalls a pending entry whose
        // per-index ack was lost to a power cycle: the rebooted backup's
        // catch-up ack names only its post-replay high-water mark.
        let stalled: Vec<i64> = self
            .pending
            .range(..=idx)
            .filter(|(_, p)| p.waiting.contains(&from))
            .map(|(i, _)| *i)
            .collect();
        for i in stalled {
            let p = self.pending.get_mut(&i).expect("present");
            p.waiting.remove(&from);
            if p.waiting.is_empty() {
                let p = self.pending.remove(&i).expect("present");
                if !p.suppress_reply {
                    outs.push(SendInstr::now(
                        p.env.client,
                        reply_msg(ctx.slf, p.env.cseq, p.outcome.committed, &p.outcome.result),
                    ));
                }
                outs.extend(p.extra);
            }
        }
    }

    // -- failure detection --------------------------------------------------

    fn on_hb_timer(&mut self, ctx: &Ctx, outs: &mut Vec<SendInstr>) {
        // Re-arm.
        outs.push(SendInstr::after(
            self.options.heartbeat_every,
            ctx.slf,
            Msg::new(HB_TIMER_HEADER, Value::Unit),
        ));
        if self.mode == Mode::Idle {
            return;
        }
        // The heartbeat's timestamp drives the read lease: a settled
        // primary stamps its own clock (a grant request), everyone else
        // echoes the latest primary timestamp they saw in this
        // configuration (a grant). Members that adopt a newer
        // configuration send under the new seq, which the old primary
        // ignores — leases die within `lease_duration` of any change.
        let ts = if self.is_primary(ctx.slf) && self.mode == Mode::Normal {
            ctx.now.as_micros() as i64
        } else {
            self.primary_ts.as_micros() as i64
        };
        for m in &self.config.members {
            if *m != ctx.slf {
                outs.push(SendInstr::now(
                    *m,
                    Msg::new(
                        HEARTBEAT_HEADER,
                        Value::pair(
                            Value::Int(self.config.seq),
                            Value::pair(Value::Loc(ctx.slf), Value::Int(ts)),
                        ),
                    ),
                ));
            }
        }
        if self.need_refetch && self.mode == Mode::Recovering {
            self.send_refetch(ctx, outs);
        }
        if !matches!(self.mode, Mode::Normal | Mode::Recovering) {
            return; // a decision for this configuration is already pending
        }
        let suspects: Vec<Loc> = self
            .config
            .members
            .iter()
            .copied()
            .filter(|m| {
                *m != ctx.slf
                    && ctx
                        .now
                        .saturating_since(*self.last_heard.get(m).unwrap_or(&VTime::ZERO))
                        > self.options.detect_after
            })
            .collect();
        if !suspects.is_empty() {
            self.propose_reconfiguration(ctx, &suspects, outs);
        }
    }

    fn on_heartbeat(&mut self, ctx: &Ctx, body: &Value) {
        let (cfg, rest) = body.unpair();
        let (from, ts) = rest.unpair();
        let from = from.loc();
        self.last_heard.insert(from, ctx.now);
        if cfg.int() != self.config.seq || ts.int() <= 0 {
            return; // lease traffic is per-configuration; 0 carries no grant
        }
        let ts = VTime::from_micros(ts.int() as u64);
        if self.is_primary(ctx.slf) {
            // A member echoed one of our grant timestamps back.
            let e = self.lease_echo.entry(from).or_insert(VTime::ZERO);
            *e = (*e).max(ts);
        } else if from == self.config.primary() {
            // Record the primary's grant timestamp for our next echo.
            self.primary_ts = self.primary_ts.max(ts);
        }
    }

    /// Disk recovery's rejoin request: ask every peer for the suffix the
    /// WAL missed (only the settled primary answers). Sent from the first
    /// heartbeat tick after restart and re-sent every tick until a
    /// catch-up (or snapshot, or a configuration change) resolves it —
    /// the primary itself may still be recovering when the first ask
    /// lands.
    fn send_refetch(&mut self, ctx: &Ctx, outs: &mut Vec<SendInstr>) {
        for m in self.config.members.clone() {
            if m != ctx.slf {
                outs.push(SendInstr::now(
                    m,
                    Msg::new(
                        REFETCH_HEADER,
                        Value::pair(Value::Loc(ctx.slf), Value::Int(self.executed)),
                    ),
                ));
            }
        }
    }

    /// Donor side of the rejoin handshake. Answer as the elector would:
    /// replay from the cache when it reaches back far enough, else
    /// stream a full snapshot.
    fn on_refetch(&mut self, ctx: &Ctx, body: &Value, outs: &mut Vec<SendInstr>) {
        if self.mode != Mode::Normal || !self.is_primary(ctx.slf) {
            return;
        }
        let (from, behind) = body.unpair();
        let (from, behind) = (from.loc(), behind.int());
        if !self.config.contains(from) {
            return;
        }
        if behind >= self.log_start {
            // An already-caught-up requester gets an empty catch-up: the
            // transfer is a no-op but it completes the rejoin handshake.
            let missing: Vec<Value> = self
                .log
                .iter()
                .skip((behind - self.log_start) as usize)
                .map(TxnEnvelope::to_value)
                .collect();
            self.note_transfer(from, TransferKind::Catchup);
            outs.push(SendInstr::now(
                from,
                Msg::new(
                    CATCHUP_HEADER,
                    Value::pair(
                        Value::Int(self.config.seq),
                        Value::pair(Value::Int(behind), Value::list(missing)),
                    ),
                ),
            ));
        } else {
            self.note_transfer(from, TransferKind::Snapshot);
            self.send_snapshot(from, outs);
        }
    }

    /// Step 1–2 of the recovery procedure: stop, then broadcast a proposal.
    fn propose_reconfiguration(&mut self, ctx: &Ctx, suspects: &[Loc], outs: &mut Vec<SendInstr>) {
        self.mode = Mode::Stopped;
        let mut members: Vec<Loc> = self
            .config
            .members
            .iter()
            .copied()
            .filter(|m| !suspects.contains(m))
            .collect();
        // Optionally replace crashed members with spares.
        let candidates: Vec<Loc> = self
            .spares
            .iter()
            .copied()
            .filter(|s| !members.contains(s) && !suspects.contains(s))
            .collect();
        let mut candidates = candidates.into_iter();
        while members.len() < self.config.members.len() {
            match candidates.next() {
                Some(s) => members.push(s),
                None => break,
            }
        }
        let proposal = ConfigCommand::NewConfig { members }.to_payload(self.config.seq);
        let msgid = self.tob_msgid;
        self.tob_msgid += 1;
        let server = self.tob_servers[(ctx.slf.index() as usize) % self.tob_servers.len()];
        outs.push(SendInstr::now(
            server,
            broadcast_msg(ctx.slf, msgid, proposal),
        ));
    }

    // -- recovery ------------------------------------------------------------

    /// Step 3: a totally ordered configuration command arrives.
    fn on_tob_deliver(&mut self, ctx: &Ctx, msg: &Msg, outs: &mut Vec<SendInstr>) {
        let Some(d) = parse_deliver(msg) else { return };
        for d in self.tob_in.offer(d) {
            self.on_config_delivery(ctx, &d, outs);
        }
    }

    fn on_config_delivery(&mut self, ctx: &Ctx, d: &Delivery, outs: &mut Vec<SendInstr>) {
        let Some((old_seq, cmd)) = ConfigCommand::parse(&d.payload) else {
            return;
        };
        let adopt = if self.mode == Mode::Idle {
            // Replicas outside the group (joiners, removed members) missed
            // intermediate configurations, so they fast-forward onto the
            // chain: safe because commands carry the explicit successor
            // membership and the TOB totally orders the chain, and Idle
            // replicas hold no authority the jump could conflict with.
            old_seq >= self.config.seq
        } else {
            // Members adopt only the *first* command per configuration.
            old_seq == self.config.seq
        };
        if !adopt {
            return;
        }
        self.promote_pref = cmd.preferred();
        self.adopt_config(
            ctx,
            ReplicaConfig {
                seq: old_seq + 1,
                members: cmd.members().to_vec(),
            },
            outs,
        );
    }

    /// First acknowledgment of this replica's dynamic TOB subscription:
    /// anchor the in-order buffer at the seq the subscription starts at
    /// (the default buffer expects seq 0 and would wait forever for
    /// history the service will never send a late subscriber).
    fn on_subok(&mut self, ctx: &Ctx, seq: i64, outs: &mut Vec<SendInstr>) {
        if !self.join_sync {
            return; // later acks from the remaining servers re-confirm
        }
        self.join_sync = false;
        let old = std::mem::replace(&mut self.tob_in, InOrderBuffer::starting_at(seq));
        for d in old.into_pending() {
            for d in self.tob_in.offer(d) {
                self.on_config_delivery(ctx, &d, outs);
            }
        }
    }

    fn adopt_config(&mut self, ctx: &Ctx, config: ReplicaConfig, outs: &mut Vec<SendInstr>) {
        self.config = config;
        if let Some(wal) = self.wal.as_mut() {
            let body = Value::pair(Value::Int(WREC_CONFIG), self.config.to_value());
            self.wal_index += 1;
            wal.append(self.wal_index, &body);
        }
        // An adopted configuration supersedes any in-flight refetch: the
        // election's own catch-up brings this replica up to date.
        self.need_refetch = false;
        self.pending.clear();
        self.forward_buf.clear();
        self.election.clear();
        self.recovery_acks.clear();
        self.active_backups.clear();
        self.snap_chunks.clear();
        self.snap_total = None;
        // Grants and echoes are per-configuration: from here on our
        // heartbeats carry the new seq, so the old primary's lease starves.
        self.lease_echo.clear();
        self.primary_ts = VTime::ZERO;
        // Fresh grace period for the new membership.
        for m in &self.config.members {
            self.last_heard.insert(*m, ctx.now);
        }
        if !self.config.contains(ctx.slf) {
            self.mode = Mode::Idle;
            return;
        }
        self.mode = Mode::Recovering;
        // Step 3 (election): send (g+1, seq_r) to all members.
        for m in &self.config.members {
            if *m == ctx.slf {
                self.election.insert(ctx.slf, self.executed);
            } else {
                outs.push(SendInstr::now(
                    *m,
                    Msg::new(
                        ELECT_HEADER,
                        Value::pair(
                            Value::Int(self.config.seq),
                            Value::pair(Value::Loc(ctx.slf), Value::Int(self.executed)),
                        ),
                    ),
                ));
            }
        }
        self.maybe_elect(ctx, outs);
    }

    fn on_elect(&mut self, ctx: &Ctx, body: &Value, outs: &mut Vec<SendInstr>) {
        let (cfg, rest) = body.unpair();
        if cfg.int() != self.config.seq || self.mode != Mode::Recovering {
            return;
        }
        let (from, executed) = rest.unpair();
        self.election.insert(from.loc(), executed.int());
        self.maybe_elect(ctx, outs);
    }

    /// Step 4: once every member reported, the one with the largest
    /// executed sequence number (ties → the `Promote` preference, then
    /// smallest id) is primary. The preference only breaks ties: a
    /// promoted-but-behind replica must not win, or committed transactions
    /// it never executed would be lost.
    fn maybe_elect(&mut self, ctx: &Ctx, outs: &mut Vec<SendInstr>) {
        if self.election.len() < self.config.members.len() {
            return;
        }
        let pref = self.promote_pref;
        let primary = self
            .config
            .members
            .iter()
            .copied()
            .max_by_key(|m| {
                (
                    self.election[m],
                    Some(*m) == pref,
                    std::cmp::Reverse(m.index()),
                )
            })
            .expect("non-empty membership");
        // Reorder the configuration so members[0] is the primary.
        let mut members = self.config.members.clone();
        members.retain(|m| *m != primary);
        members.insert(0, primary);
        self.config.members = members;
        if primary != ctx.slf {
            return; // wait for catch-up from the new primary
        }
        // Step 5: bring the backups up to date.
        for b in self.config.backups().to_vec() {
            let behind = self.election[&b];
            if behind >= self.log_start {
                let missing: Vec<Value> = self
                    .log
                    .iter()
                    .skip((behind - self.log_start) as usize)
                    .map(TxnEnvelope::to_value)
                    .collect();
                self.note_transfer(b, TransferKind::Catchup);
                outs.push(SendInstr::now(
                    b,
                    Msg::new(
                        CATCHUP_HEADER,
                        Value::pair(
                            Value::Int(self.config.seq),
                            Value::pair(Value::Int(behind), Value::list(missing)),
                        ),
                    ),
                ));
            } else {
                self.note_transfer(b, TransferKind::Snapshot);
                self.send_snapshot(b, outs);
            }
        }
        if self.config.backups().is_empty() {
            self.enter_normal_as_primary(ctx);
        }
    }

    /// The post-recovery Normal transition of a (possibly new) primary:
    /// before serving any fast-path read in this configuration, wait out
    /// the largest lease the previous configuration's primary could still
    /// be holding. Every new member has adopted the new configuration by
    /// now (adoption precedes the election reports and recovery acks that
    /// got us here), so any echo feeding an old lease froze before this
    /// instant: `lease_duration + lease_margin` from here covers it.
    fn enter_normal_as_primary(&mut self, ctx: &Ctx) {
        self.mode = Mode::Normal;
        if self.options.read_leases {
            self.lease_wait_until =
                ctx.now + self.options.lease_duration + self.options.lease_margin;
        }
    }

    /// Streams a full snapshot in ~50 KB batches, charging serialization
    /// cost per the engine profile.
    fn send_snapshot(&mut self, to: Loc, outs: &mut Vec<SendInstr>) {
        let snapshot = self.db.snapshot();
        let batches = snapshot.to_batches(self.options.transfer_batch_bytes);
        let costs = self.db.profile().costs;
        // Snapshot preparation: session setup plus scanning every row.
        self.charge(
            Duration::from_millis(300)
                + Duration::from_micros(costs.scan_row_us * snapshot.row_count() as u64),
        );
        let col_values: usize = batches.iter().map(RowBatch::column_values).sum();
        self.charge(Duration::from_micros(
            costs.serialize_col_us * col_values as u64,
        ));
        let total = batches.len() as i64;
        // Sharded groups must also transfer the 2PC protocol state and
        // emission counters: the row snapshot alone would lose in-flight
        // cross-shard transactions. Attached to every chunk (the state is
        // small — in-flight transactions only) so arrival order is moot.
        let shard_state = self.engine.as_ref().map(|e| {
            Value::pair(
                Value::list(self.twopc_seq.iter().map(|s| Value::Int(*s))),
                e.to_value(),
            )
        });
        for (i, b) in batches.iter().enumerate() {
            let meta = Value::pair(Value::Int(total), Value::Int(self.executed));
            let payload = match &shard_state {
                Some(state) => {
                    Value::pair(meta, Value::pair(state.clone(), Value::Bytes(b.encode())))
                }
                None => Value::pair(meta, Value::Bytes(b.encode())),
            };
            outs.push(SendInstr::now(
                to,
                Msg::new(
                    if shard_state.is_some() {
                        SNAPSHOT2_HEADER
                    } else {
                        SNAPSHOT_HEADER
                    },
                    Value::pair(
                        Value::Int(self.config.seq),
                        Value::pair(Value::Int(i as i64), payload),
                    ),
                ),
            ));
        }
    }

    fn on_catchup(&mut self, ctx: &Ctx, body: &Value, outs: &mut Vec<SendInstr>) {
        let (cfg, rest) = body.unpair();
        if cfg.int() != self.config.seq || self.mode != Mode::Recovering {
            return;
        }
        let (start, txns) = rest.unpair();
        let start = start.int();
        // Collect the run of missing transactions, then group-apply it
        // under one engine commit (no replies are sent during catch-up, so
        // repeated clients inside the run are fine).
        let mut batch: Vec<TxnEnvelope> = Vec::new();
        for (off, t) in txns.elems().iter().enumerate() {
            if start + off as i64 == self.executed + batch.len() as i64 {
                if let Some(env) = TxnEnvelope::from_value(t) {
                    batch.push(env);
                }
            }
        }
        if !batch.is_empty() {
            self.execute_txn_group(ctx.slf, &batch);
            // Catch-up replay advances 2PC counters without emitting.
            self.twopc_outbox.clear();
        }
        // Acknowledge the post-replay high-water mark (acks are cumulative
        // at the primary), and do so even when the catch-up was empty:
        // when no reconfiguration happened — a disk-recovered backup
        // rejoining its unchanged configuration — the primary may hold
        // pending entries stalled on this replica, including ones whose
        // execution the WAL already held but whose acks died with the
        // connection at the power cut.
        outs.push(SendInstr::now(
            self.config.primary(),
            Msg::new(
                ACK_HEADER,
                Value::pair(
                    Value::Int(self.config.seq),
                    Value::pair(Value::Int(self.executed), Value::Loc(ctx.slf)),
                ),
            ),
        ));
        self.finish_recovery(ctx, outs);
    }

    fn on_snapshot(&mut self, ctx: &Ctx, body: &Value, sharded: bool, outs: &mut Vec<SendInstr>) {
        let (cfg, rest) = body.unpair();
        if cfg.int() != self.config.seq || self.mode != Mode::Recovering {
            return;
        }
        let (i, rest) = rest.unpair();
        let (meta, rest) = rest.unpair();
        let data = if sharded {
            let (state, data) = rest.unpair();
            self.snap_engine = Some(state.clone());
            data
        } else {
            rest
        };
        let (total, executed) = meta.unpair();
        self.snap_total = Some((total.int(), executed.int()));
        if let Some(b) = data.as_bytes() {
            self.snap_chunks.insert(i.int(), b.clone());
        }
        let (total, executed) = self.snap_total.expect("just set");
        if (self.snap_chunks.len() as i64) < total {
            return;
        }
        // All chunks arrived: decode, restore, charge insertion cost.
        let decoded: Result<Vec<RowBatch>, _> = self
            .snap_chunks
            .values()
            .map(|b| RowBatch::decode(b.clone()))
            .collect();
        let Ok(batches) = decoded else { return };
        let Ok(snapshot) = shadowdb_sqldb::Snapshot::from_batches(&batches) else {
            return;
        };
        let costs = self.db.profile().costs;
        let rows: usize = batches.iter().map(|b| b.rows.len()).sum();
        let bytes: usize = batches.iter().map(RowBatch::encoded_len).sum();
        self.charge(Duration::from_micros(
            costs.bulk_insert_us * rows as u64 + costs.bulk_insert_byte_ns * bytes as u64 / 1_000,
        ));
        if self.db.restore(&snapshot).is_err() {
            return;
        }
        self.executed = executed;
        self.log.clear();
        self.log_start = executed;
        self.snap_chunks.clear();
        self.snap_total = None;
        if self.wal.is_some() {
            // The network snapshot jumped execution past what the log
            // holds; force an immediate durable snapshot (end of this
            // step) so the disk never replays a log with a gap in it.
            self.wal_snap_at = self.wal_index - self.snapshot_every;
        }
        // Sharded: adopt the donor's 2PC state and emission counters, so
        // this replica resumes the protocol exactly where the group is.
        if let Some(state) = self.snap_engine.take() {
            self.adopt_shard_state(state);
        }
        self.finish_recovery(ctx, outs);
    }

    /// Adopts a donor's (or a durable snapshot's) 2PC protocol state and
    /// emission counters.
    fn adopt_shard_state(&mut self, state: Value) {
        let Some(role) = &self.role else { return };
        let (seqs, engine) = state.unpair();
        let restored: Option<Vec<i64>> = seqs
            .as_list()
            .map(|l| l.iter().filter_map(Value::as_int).collect());
        if let Some(seqs) = restored {
            if seqs.len() == role.map.shards() {
                self.twopc_seq = seqs;
            }
        }
        if let Some(e) = TwoPcEngine::from_value(engine, role.map, role.shard, role.probe.clone()) {
            self.engine = Some(e);
        }
    }

    /// Step 6: acknowledge recovery to the primary and resume.
    fn finish_recovery(&mut self, ctx: &Ctx, outs: &mut Vec<SendInstr>) {
        self.need_refetch = false;
        outs.push(SendInstr::now(
            self.config.primary(),
            Msg::new(
                RECOVERY_ACK_HEADER,
                Value::pair(Value::Int(self.config.seq), Value::Loc(ctx.slf)),
            ),
        ));
        if self.is_primary(ctx.slf) {
            self.enter_normal_as_primary(ctx);
        } else {
            self.mode = Mode::Normal;
        }
        self.drain_forwards(ctx, outs);
    }

    /// Answers a configuration-status query with this replica's view of
    /// the chain (used by `ReconfigHandle` to CAS the next command and to
    /// poll convergence).
    fn on_config_query(&mut self, ctx: &Ctx, body: &Value, outs: &mut Vec<SendInstr>) {
        outs.push(SendInstr::now(
            body.loc(),
            config_reply_msg(
                ctx.slf,
                &self.config,
                self.executed,
                self.mode == Mode::Normal,
            ),
        ));
    }

    /// Step 7: the primary resumes once the required backups acknowledged.
    fn on_recovery_ack(&mut self, ctx: &Ctx, body: &Value) {
        let (cfg, from) = body.unpair();
        if cfg.int() != self.config.seq || !self.is_primary(ctx.slf) {
            return;
        }
        self.recovery_acks.insert(from.loc());
        self.active_backups.insert(from.loc());
        let needed = if self.options.overlapped_transfer {
            1
        } else {
            self.config.backups().len()
        };
        if self.mode == Mode::Recovering && self.recovery_acks.len() >= needed {
            self.enter_normal_as_primary(ctx);
        }
    }
}

impl PbrReplica {
    /// First-step initialization: learn our own identity from the context.
    fn ensure_init(&mut self, ctx: &Ctx) {
        if self.hb_armed {
            return;
        }
        self.hb_armed = true;
        if !self.config.contains(ctx.slf) {
            self.mode = Mode::Idle; // a spare, until a configuration adds us
            return;
        }
        // Startup counts as hearing from everyone (grace period).
        for m in self.config.members.clone() {
            self.last_heard.entry(m).or_insert(ctx.now);
        }
        if self.is_primary(ctx.slf) {
            self.active_backups = self.config.backups().iter().copied().collect();
        }
    }
}

impl Process for PbrReplica {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        self.ensure_init(ctx);
        let h = msg.header;
        if h == cached_header!(SUBMIT_HEADER) {
            self.on_submit(ctx, &msg.body, out);
        } else if h == cached_header!(FORWARD_HEADER) {
            self.on_forward(ctx, &msg.body, out);
        } else if h == cached_header!(ACK_HEADER) {
            self.on_ack(ctx, &msg.body, out);
        } else if h == cached_header!(HB_TIMER_HEADER) {
            self.on_hb_timer(ctx, out);
        } else if h == cached_header!(HEARTBEAT_HEADER) {
            self.on_heartbeat(ctx, &msg.body);
        } else if h == cached_header!(ELECT_HEADER) {
            self.on_elect(ctx, &msg.body, out);
        } else if h == cached_header!(CATCHUP_HEADER) {
            self.on_catchup(ctx, &msg.body, out);
        } else if h == cached_header!(SNAPSHOT_HEADER) {
            self.on_snapshot(ctx, &msg.body, false, out);
        } else if h == cached_header!(SNAPSHOT2_HEADER) {
            self.on_snapshot(ctx, &msg.body, true, out);
        } else if h == cached_header!(RECOVERY_ACK_HEADER) {
            self.on_recovery_ack(ctx, &msg.body);
        } else if h == cached_header!(REFETCH_HEADER) {
            self.on_refetch(ctx, &msg.body, out);
        } else if h == cached_header!(CONFIG_QUERY_HEADER) {
            self.on_config_query(ctx, &msg.body, out);
        } else if let Some(seq) = parse_subok(msg) {
            self.on_subok(ctx, seq, out);
        } else {
            self.on_tob_deliver(ctx, msg, out);
        }
        // Durability before visibility: fsync whatever this step logged
        // before the runtime dispatches the step's sends.
        self.flush_wal();
    }

    fn take_step_cost(&mut self) -> Duration {
        std::mem::take(&mut self.step_cost)
    }

    fn clone_box(&self) -> Box<dyn Process> {
        // Deep-copy the database so the fork is independent (model checking
        // forks executions).
        let db = Database::new(self.db.profile().clone());
        db.restore(&self.db.snapshot())
            .expect("snapshot of a valid database restores");
        Box::new(PbrReplica {
            db,
            options: self.options.clone(),
            config: self.config.clone(),
            spares: self.spares.clone(),
            tob_servers: self.tob_servers.clone(),
            mode: self.mode,
            executed: self.executed,
            log: self.log.clone(),
            log_start: self.log_start,
            last_reply: self.last_reply.clone(),
            pending: self
                .pending
                .iter()
                .map(|(k, v)| {
                    (
                        *k,
                        Pending {
                            env: v.env.clone(),
                            outcome: v.outcome.clone(),
                            waiting: v.waiting.clone(),
                            extra: v.extra.clone(),
                            suppress_reply: v.suppress_reply,
                        },
                    )
                })
                .collect(),
            active_backups: self.active_backups.clone(),
            forward_buf: self.forward_buf.clone(),
            last_heard: self.last_heard.clone(),
            hb_armed: self.hb_armed,
            tob_in: self.tob_in.clone(),
            tob_msgid: self.tob_msgid,
            election: self.election.clone(),
            recovery_acks: self.recovery_acks.clone(),
            promote_pref: self.promote_pref,
            join_sync: self.join_sync,
            snap_chunks: self.snap_chunks.clone(),
            snap_total: self.snap_total,
            probe_last: self.probe_last,
            role: self.role.clone(),
            engine: self.engine.clone(),
            twopc_seq: self.twopc_seq.clone(),
            twopc_outbox: self.twopc_outbox.clone(),
            snap_engine: self.snap_engine.clone(),
            // The fork shares the original's disk: model checking never
            // runs durable replicas, and a shared-append fork would
            // corrupt the index sequence — reopening keeps the clone
            // well-formed for read-only use.
            wal: self.wal.as_ref().map(|w| Wal::open(w.disk().clone())),
            wal_index: self.wal_index,
            wal_snap_at: self.wal_snap_at,
            snapshot_every: self.snapshot_every,
            need_refetch: self.need_refetch,
            lease_echo: self.lease_echo.clone(),
            primary_ts: self.primary_ts,
            lease_wait_until: self.lease_wait_until,
            step_cost: self.step_cost,
        })
    }

    fn digest(&self, hasher: &mut dyn Hasher) {
        let mut h = HasherAdapter(hasher);
        (self.executed, self.config.seq, self.mode).hash(&mut h);
        (self.promote_pref, self.join_sync, self.need_refetch).hash(&mut h);
        self.twopc_seq.hash(&mut h);
    }
}
