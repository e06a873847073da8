//! The per-node host state a shard event loop steps in place: the hosted
//! process, its self-send inbox, and its outbound links. Unlike the old
//! thread-per-node runtime there is no node thread — delivering a decoded
//! frame, firing a timer, and flushing a link all happen inline on the
//! owning shard's loop.

use crate::link::OutLink;
use shadowdb_eventml::{FrameEncoder, Msg, Process};
use shadowdb_loe::Loc;
use std::collections::{HashMap, VecDeque};

/// One hosted process and everything that dies with it on crash: volatile
/// state, the self-send inbox, and the outbound connections. Pending
/// timers are invalidated through `epoch` — entries armed by a previous
/// incarnation never fire into a restarted process.
pub struct NodeHost {
    /// The host's own location.
    pub slf: Loc,
    /// Incarnation number: bumped on every (re)start, checked by timers.
    pub epoch: u64,
    /// The hosted process.
    pub process: Box<dyn Process>,
    /// Zero-delay self-sends, drained by the shard loop between polls.
    pub inbox: VecDeque<Msg>,
    /// Whether the host is on its shard's list of inboxes to drain.
    pub inbox_listed: bool,
    /// Outbound links by destination location.
    pub links: HashMap<u32, OutLink>,
    /// Per-connection scratch encoder: steady-state sends allocate
    /// nothing.
    pub enc: FrameEncoder,
}

impl NodeHost {
    /// A fresh incarnation of `process` at `slf`.
    pub fn new(slf: Loc, epoch: u64, process: Box<dyn Process>) -> NodeHost {
        NodeHost {
            slf,
            epoch,
            process,
            inbox: VecDeque::new(),
            inbox_listed: false,
            links: HashMap::new(),
            enc: FrameEncoder::new(),
        }
    }
}
