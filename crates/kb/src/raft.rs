//! A from-scratch Raft consensus implementation.
//!
//! The paper considers ETCD — "a strongly consistent, distributed
//! key-value store" — as the shared Knowledge Base. ETCD's consistency
//! comes from Raft, so this module implements Raft proper: randomized
//! leader election, log replication with the consistency check, and the
//! commit rule restricted to current-term entries. [`RaftNode`] is a pure
//! deterministic state machine (inputs: messages + time; outputs:
//! messages); [`RaftCluster`] drives N nodes over a simulated message
//! fabric with configurable latency, crashes and partitions.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use myrtus_continuum::time::{SimDuration, SimTime};
use myrtus_obs::hash::WordSet;

use crate::command::KvCommand;
use crate::store::{KvSnapshot, KvStore};

/// Whether the seeded election-safety bug is armed: a replica that has
/// already voted this term "forgets" and grants again. Compiled out of
/// release builds; the thread-local switch defaults to off, so even
/// test builds behave identically until a checker arms it.
fn mutation_forgets_vote() -> bool {
    #[cfg(any(test, feature = "mc-mutations"))]
    {
        crate::mutation::raft_double_vote()
    }
    #[cfg(not(any(test, feature = "mc-mutations")))]
    {
        false
    }
}

/// One replicated log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Term in which the entry was appended at the leader.
    pub term: u64,
    /// The carried state-machine command.
    pub cmd: KvCommand,
}

/// Raft wire messages.
#[derive(Debug, Clone, PartialEq)]
pub enum RaftMsg {
    /// Candidate requesting a vote.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// Index of the candidate's last log entry.
        last_log_index: u64,
        /// Term of the candidate's last log entry.
        last_log_term: u64,
    },
    /// Vote response.
    VoteReply {
        /// Responder's current term.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Leader replicating entries / heartbeating.
    AppendEntries {
        /// Leader's term.
        term: u64,
        /// Index of the entry preceding `entries`.
        prev_index: u64,
        /// Term of the entry preceding `entries`.
        prev_term: u64,
        /// Entries to append (empty for heartbeats).
        entries: Vec<LogEntry>,
        /// Leader's commit index.
        leader_commit: u64,
    },
    /// Leader shipping a state snapshot to a lagging/compacted follower.
    InstallSnapshot {
        /// Leader's term.
        term: u64,
        /// Index of the last entry covered by the snapshot.
        last_index: u64,
        /// Term of that entry.
        last_term: u64,
        /// The state-machine snapshot.
        snapshot: KvSnapshot,
    },
    /// Append response.
    AppendReply {
        /// Responder's current term.
        term: u64,
        /// Whether the append matched.
        success: bool,
        /// Highest index known replicated on the responder when
        /// `success`; hint for nextIndex backoff otherwise.
        match_index: u64,
    },
}

/// Raft role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Passive replica.
    Follower,
    /// Election in progress.
    Candidate,
    /// Elected leader for the current term.
    Leader,
}

/// Timing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaftConfig {
    /// Minimum randomized election timeout.
    pub election_min: SimDuration,
    /// Maximum randomized election timeout.
    pub election_max: SimDuration,
    /// Leader heartbeat interval.
    pub heartbeat: SimDuration,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            election_min: SimDuration::from_millis(150),
            election_max: SimDuration::from_millis(300),
            heartbeat: SimDuration::from_millis(50),
        }
    }
}

/// Error returned when proposing to a non-leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotLeaderError;

impl std::fmt::Display for NotLeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("this replica is not the leader")
    }
}

impl std::error::Error for NotLeaderError {}

/// One Raft replica as a pure state machine.
///
/// `Clone` is part of the contract: the `mc` model checker snapshots
/// whole replicas as explicit states, so every field must be plain
/// data (the RNG included — the vendored `StdRng` is a clonable
/// splitmix stream).
#[derive(Debug, Clone)]
pub struct RaftNode {
    id: usize,
    n: usize,
    cfg: RaftConfig,
    term: u64,
    voted_for: Option<usize>,
    log: Vec<LogEntry>,
    log_offset: u64,
    last_included_term: u64,
    snapshot: Option<KvSnapshot>,
    pending_install: Option<KvSnapshot>,
    commit_index: u64,
    last_applied: u64,
    role: Role,
    votes: WordSet<usize>,
    next_index: Vec<u64>,
    match_index: Vec<u64>,
    election_deadline: SimTime,
    heartbeat_due: SimTime,
    rng: StdRng,
}

impl RaftNode {
    /// Creates replica `id` of an `n`-replica group.
    ///
    /// # Panics
    ///
    /// Panics if `id >= n` or `n == 0`.
    pub fn new(id: usize, n: usize, seed: u64, cfg: RaftConfig) -> Self {
        assert!(n > 0 && id < n, "id must be within the group");
        let mut node = RaftNode {
            id,
            n,
            cfg,
            term: 0,
            voted_for: None,
            log: Vec::new(),
            log_offset: 0,
            last_included_term: 0,
            snapshot: None,
            pending_install: None,
            commit_index: 0,
            last_applied: 0,
            role: Role::Follower,
            votes: WordSet::default(),
            next_index: vec![1; n],
            match_index: vec![0; n],
            election_deadline: SimTime::ZERO,
            heartbeat_due: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed.wrapping_add(id as u64).wrapping_mul(0x9E37_79B9)),
        };
        node.reset_election_deadline(SimTime::ZERO);
        node
    }

    /// Replica id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Commit index.
    pub fn commit_index(&self) -> u64 {
        self.commit_index
    }

    /// Log length (last log index).
    pub fn last_log_index(&self) -> u64 {
        self.log_offset + self.log.len() as u64
    }

    /// Index of the last compacted (snapshot-covered) entry.
    pub fn log_offset(&self) -> u64 {
        self.log_offset
    }

    /// In-memory log entries currently retained.
    pub fn retained_log_len(&self) -> usize {
        self.log.len()
    }

    /// Highest applied index.
    pub fn last_applied(&self) -> u64 {
        self.last_applied
    }

    /// Who this replica voted for in the current term, if anyone.
    pub fn voted_for(&self) -> Option<usize> {
        self.voted_for
    }

    /// The term recorded at `index` (0 when the index is empty or
    /// compacted away below the snapshot boundary).
    pub fn log_term_at(&self, index: u64) -> u64 {
        self.term_at(index)
    }

    /// Votes gathered in the current candidacy, sorted by replica id.
    pub fn votes_granted(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.votes.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// The instant at which this replica will start an election unless
    /// it hears from a leader first. Drivers that want to force a
    /// timeout deterministically call [`RaftNode::tick`] at this time.
    pub fn election_deadline(&self) -> SimTime {
        self.election_deadline
    }

    /// The instant of the next heartbeat broadcast (leaders only).
    pub fn heartbeat_due(&self) -> SimTime {
        self.heartbeat_due
    }

    /// The leader's next replication index for `peer` (1 on followers,
    /// where the vector is simply stale).
    pub fn next_index_of(&self, peer: usize) -> u64 {
        self.next_index.get(peer).copied().unwrap_or(1)
    }

    /// The leader's highest known replicated index on `peer`.
    pub fn match_index_of(&self, peer: usize) -> u64 {
        self.match_index.get(peer).copied().unwrap_or(0)
    }

    fn last_log_term(&self) -> u64 {
        self.log.last().map_or(self.last_included_term, |e| e.term)
    }

    fn entry(&self, index: u64) -> Option<&LogEntry> {
        if index <= self.log_offset {
            None
        } else {
            self.log.get((index - self.log_offset) as usize - 1)
        }
    }

    fn term_at(&self, index: u64) -> u64 {
        if index == 0 {
            0
        } else if index == self.log_offset {
            self.last_included_term
        } else {
            self.entry(index).map_or(0, |e| e.term)
        }
    }

    /// Discards log entries up to `upto` (which must be applied already),
    /// retaining `state` as the snapshot lagging followers will receive.
    ///
    /// # Panics
    ///
    /// Panics if `upto` exceeds the applied index.
    pub fn compact(&mut self, upto: u64, state: KvSnapshot) {
        assert!(upto <= self.last_applied, "can only compact applied entries");
        if upto <= self.log_offset {
            return;
        }
        let new_last_term = self.term_at(upto);
        let drop = (upto - self.log_offset) as usize;
        self.log.drain(..drop);
        self.log_offset = upto;
        self.last_included_term = new_last_term;
        self.snapshot = Some(state);
    }

    /// Takes a snapshot installed by the leader, to be restored into the
    /// replica's state machine by the hosting cluster.
    pub fn take_pending_install(&mut self) -> Option<KvSnapshot> {
        self.pending_install.take()
    }

    fn reset_election_deadline(&mut self, now: SimTime) {
        let span = self.cfg.election_max.as_micros() - self.cfg.election_min.as_micros();
        let jitter = if span == 0 { 0 } else { self.rng.gen_range(0..=span) };
        self.election_deadline = now + self.cfg.election_min + SimDuration::from_micros(jitter);
    }

    fn become_follower(&mut self, now: SimTime, term: u64) {
        self.term = term;
        self.role = Role::Follower;
        self.voted_for = None;
        self.votes.clear();
        self.reset_election_deadline(now);
    }

    fn broadcast(&self, msg: RaftMsg) -> Vec<(usize, RaftMsg)> {
        (0..self.n).filter(|&p| p != self.id).map(|p| (p, msg.clone())).collect()
    }

    /// Advances timers; may start an election or emit heartbeats.
    pub fn tick(&mut self, now: SimTime) -> Vec<(usize, RaftMsg)> {
        match self.role {
            Role::Leader => {
                if now >= self.heartbeat_due {
                    self.heartbeat_due = now + self.cfg.heartbeat;
                    return self.replicate_all();
                }
                Vec::new()
            }
            Role::Follower | Role::Candidate => {
                if now >= self.election_deadline {
                    self.start_election(now)
                } else {
                    Vec::new()
                }
            }
        }
    }

    fn start_election(&mut self, now: SimTime) -> Vec<(usize, RaftMsg)> {
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.id);
        self.votes.clear();
        self.votes.insert(self.id);
        self.reset_election_deadline(now);
        if self.n == 1 {
            self.become_leader(now);
            return Vec::new();
        }
        self.broadcast(RaftMsg::RequestVote {
            term: self.term,
            last_log_index: self.last_log_index(),
            last_log_term: self.last_log_term(),
        })
    }

    fn become_leader(&mut self, now: SimTime) {
        self.role = Role::Leader;
        let next = self.last_log_index() + 1;
        self.next_index = vec![next; self.n];
        self.match_index = vec![0; self.n];
        self.match_index[self.id] = self.last_log_index();
        self.heartbeat_due = now; // heartbeat immediately on next tick
    }

    fn replicate_all(&mut self) -> Vec<(usize, RaftMsg)> {
        (0..self.n).filter(|&p| p != self.id).map(|p| (p, self.append_for(p))).collect()
    }

    fn append_for(&self, peer: usize) -> RaftMsg {
        let next = self.next_index[peer].max(1);
        if next <= self.log_offset {
            // The entries the peer needs are compacted away: ship the
            // snapshot instead (InstallSnapshot).
            return RaftMsg::InstallSnapshot {
                term: self.term,
                last_index: self.log_offset,
                last_term: self.last_included_term,
                snapshot: self.snapshot.clone().unwrap_or_default(),
            };
        }
        let prev_index = next - 1;
        let prev_term = self.term_at(prev_index);
        let entries: Vec<LogEntry> =
            self.log.iter().skip((prev_index - self.log_offset) as usize).cloned().collect();
        RaftMsg::AppendEntries {
            term: self.term,
            prev_index,
            prev_term,
            entries,
            leader_commit: self.commit_index,
        }
    }

    /// Handles one message from `from`; returns messages to send.
    pub fn handle(&mut self, now: SimTime, from: usize, msg: RaftMsg) -> Vec<(usize, RaftMsg)> {
        match msg {
            RaftMsg::RequestVote { term, last_log_index, last_log_term } => {
                if term > self.term {
                    self.become_follower(now, term);
                }
                let log_ok = last_log_term > self.last_log_term()
                    || (last_log_term == self.last_log_term()
                        && last_log_index >= self.last_log_index());
                let vote_free = self.voted_for.is_none()
                    || self.voted_for == Some(from)
                    || mutation_forgets_vote();
                let granted = term == self.term && log_ok && vote_free;
                if granted {
                    self.voted_for = Some(from);
                    self.reset_election_deadline(now);
                }
                vec![(from, RaftMsg::VoteReply { term: self.term, granted })]
            }
            RaftMsg::VoteReply { term, granted } => {
                if term > self.term {
                    self.become_follower(now, term);
                    return Vec::new();
                }
                if self.role == Role::Candidate && term == self.term && granted {
                    self.votes.insert(from);
                    if self.votes.len() * 2 > self.n {
                        self.become_leader(now);
                        return self.replicate_all();
                    }
                }
                Vec::new()
            }
            RaftMsg::AppendEntries { term, prev_index, prev_term, entries, leader_commit } => {
                if term < self.term {
                    return vec![(
                        from,
                        RaftMsg::AppendReply { term: self.term, success: false, match_index: 0 },
                    )];
                }
                // Valid leader for this term: step down / stay follower.
                if term > self.term || self.role != Role::Follower {
                    self.become_follower(now, term);
                } else {
                    self.reset_election_deadline(now);
                }
                // Consistency check (entries at or below the snapshot
                // offset are covered by the snapshot by construction).
                if prev_index > self.last_log_index()
                    || (prev_index >= self.log_offset && self.term_at(prev_index) != prev_term)
                {
                    let hint = self.last_log_index().min(prev_index.saturating_sub(1));
                    return vec![(
                        from,
                        RaftMsg::AppendReply { term: self.term, success: false, match_index: hint },
                    )];
                }
                // Append, truncating conflicts; skip entries the snapshot
                // already covers.
                let mut idx = prev_index;
                for e in entries {
                    idx += 1;
                    if idx <= self.log_offset {
                        continue;
                    }
                    if self.term_at(idx) != e.term {
                        self.log.truncate((idx - self.log_offset) as usize - 1);
                        self.log.push(e);
                    }
                }
                if leader_commit > self.commit_index {
                    self.commit_index = leader_commit.min(self.last_log_index());
                }
                vec![(
                    from,
                    RaftMsg::AppendReply { term: self.term, success: true, match_index: idx },
                )]
            }
            RaftMsg::InstallSnapshot { term, last_index, last_term, snapshot } => {
                if term < self.term {
                    return vec![(
                        from,
                        RaftMsg::AppendReply { term: self.term, success: false, match_index: 0 },
                    )];
                }
                if term > self.term || self.role != Role::Follower {
                    self.become_follower(now, term);
                } else {
                    self.reset_election_deadline(now);
                }
                if last_index > self.last_applied {
                    // Adopt the snapshot wholesale; any retained suffix
                    // after last_index stays (it may still be valid).
                    if last_index >= self.last_log_index() {
                        self.log.clear();
                    } else {
                        let keep_from = (last_index - self.log_offset) as usize;
                        self.log.drain(..keep_from.min(self.log.len()));
                    }
                    self.log_offset = last_index;
                    self.last_included_term = last_term;
                    self.commit_index = self.commit_index.max(last_index);
                    self.last_applied = last_index;
                    self.snapshot = Some(snapshot.clone());
                    self.pending_install = Some(snapshot);
                }
                vec![(
                    from,
                    RaftMsg::AppendReply {
                        term: self.term,
                        success: true,
                        match_index: last_index.max(self.last_applied),
                    },
                )]
            }
            RaftMsg::AppendReply { term, success, match_index } => {
                if term > self.term {
                    self.become_follower(now, term);
                    return Vec::new();
                }
                if self.role != Role::Leader || term < self.term {
                    return Vec::new();
                }
                if success {
                    self.match_index[from] = self.match_index[from].max(match_index);
                    self.next_index[from] = self.match_index[from] + 1;
                    self.advance_commit();
                    Vec::new()
                } else {
                    // Back off and retry immediately.
                    self.next_index[from] = (match_index + 1)
                        .max(1)
                        .min(self.next_index[from].saturating_sub(1).max(1));
                    vec![(from, self.append_for(from))]
                }
            }
        }
    }

    fn advance_commit(&mut self) {
        let mut n = self.last_log_index();
        while n > self.commit_index {
            if self.term_at(n) == self.term {
                let replicas =
                    1 + (0..self.n).filter(|&p| p != self.id && self.match_index[p] >= n).count();
                if replicas * 2 > self.n {
                    self.commit_index = n;
                    break;
                }
            }
            n -= 1;
        }
    }

    /// Appends a command to the leader's log; entries replicate on the
    /// next heartbeat (or immediately via the returned messages).
    ///
    /// # Errors
    ///
    /// Returns [`NotLeaderError`] on non-leaders.
    pub fn propose(
        &mut self,
        cmd: KvCommand,
    ) -> Result<(u64, Vec<(usize, RaftMsg)>), NotLeaderError> {
        if self.role != Role::Leader {
            return Err(NotLeaderError);
        }
        self.log.push(LogEntry { term: self.term, cmd });
        let index = self.last_log_index();
        self.match_index[self.id] = index;
        if self.n == 1 {
            self.advance_commit();
        }
        Ok((index, self.replicate_all()))
    }

    /// Returns entries committed but not yet surfaced, advancing the
    /// applied cursor.
    pub fn take_committed(&mut self) -> Vec<(u64, KvCommand)> {
        let mut out = Vec::new();
        while self.last_applied < self.commit_index {
            self.last_applied += 1;
            let Some(e) = self.entry(self.last_applied) else {
                // Covered by an installed snapshot.
                continue;
            };
            out.push((self.last_applied, e.cmd.clone()));
        }
        out
    }
}

#[derive(Debug)]
struct InFlight {
    at: SimTime,
    seq: u64,
    from: usize,
    to: usize,
    msg: RaftMsg,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A simulated Raft group: N replicas, a message fabric with uniform
/// latency, crash/restart and partition controls, and one [`KvStore`]
/// state machine per replica.
///
/// # Examples
///
/// ```
/// use myrtus_kb::command::KvCommand;
/// use myrtus_kb::raft::RaftCluster;
/// use myrtus_continuum::time::{SimDuration, SimTime};
///
/// let mut cluster = RaftCluster::new(3, 42, SimDuration::from_millis(5));
/// cluster.run_until(SimTime::from_secs(2));
/// let leader = cluster.leader().expect("a leader is elected");
/// cluster.propose(leader, KvCommand::put("/k", b"v")).expect("leader accepts");
/// cluster.run_for(SimDuration::from_millis(500));
/// assert_eq!(cluster.committed_value(leader, "/k"), Some(b"v".to_vec()));
/// ```
#[derive(Debug)]
pub struct RaftCluster {
    nodes: Vec<Option<RaftNode>>,
    stores: Vec<KvStore>,
    now: SimTime,
    queue: BinaryHeap<Reverse<InFlight>>,
    seq: u64,
    latency: SimDuration,
    cut: WordSet<(usize, usize)>,
    tick: SimDuration,
    delivered: u64,
    compaction_threshold: Option<u64>,
}

impl RaftCluster {
    /// Creates an `n`-replica group with the given message latency.
    pub fn new(n: usize, seed: u64, latency: SimDuration) -> Self {
        Self::with_config(n, seed, latency, RaftConfig::default())
    }

    /// Creates a group with explicit Raft timing.
    pub fn with_config(n: usize, seed: u64, latency: SimDuration, cfg: RaftConfig) -> Self {
        RaftCluster {
            nodes: (0..n).map(|i| Some(RaftNode::new(i, n, seed, cfg))).collect(),
            stores: (0..n).map(|_| KvStore::new()).collect(),
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            latency,
            cut: WordSet::default(),
            tick: SimDuration::from_millis(1),
            delivered: 0,
            compaction_threshold: None,
        }
    }

    /// Current logical time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Enables per-replica log compaction: whenever a replica has more
    /// than `retained_entries` applied entries in memory, it snapshots
    /// its state machine and truncates the log (etcd auto-compaction).
    pub fn enable_compaction(&mut self, retained_entries: u64) {
        self.compaction_threshold = Some(retained_entries.max(1));
    }

    /// Retained in-memory log entries of a replica (0 for crashed ones).
    pub fn retained_log_len(&self, id: usize) -> usize {
        self.nodes[id].as_ref().map_or(0, RaftNode::retained_log_len)
    }

    /// Number of replicas (including crashed ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Messages delivered so far.
    pub fn messages_delivered(&self) -> u64 {
        self.delivered
    }

    /// The current leader, if exactly one alive replica believes it leads
    /// in the highest term.
    pub fn leader(&self) -> Option<usize> {
        let max_term = self.nodes.iter().flatten().map(RaftNode::term).max()?;
        let leaders: Vec<usize> = self
            .nodes
            .iter()
            .flatten()
            .filter(|n| n.role() == Role::Leader && n.term() == max_term)
            .map(RaftNode::id)
            .collect();
        if leaders.len() == 1 {
            Some(leaders[0])
        } else {
            None
        }
    }

    /// All replicas currently believing they are leader (for safety
    /// assertions).
    pub fn all_leaders(&self) -> Vec<(usize, u64)> {
        self.nodes
            .iter()
            .flatten()
            .filter(|n| n.role() == Role::Leader)
            .map(|n| (n.id(), n.term()))
            .collect()
    }

    /// The replica's applied state machine.
    pub fn store(&self, id: usize) -> &KvStore {
        &self.stores[id]
    }

    /// Reads the applied (committed) value of `key` at replica `id`.
    pub fn committed_value(&self, id: usize, key: &str) -> Option<Vec<u8>> {
        self.stores[id].get(key).map(|e| e.value.to_vec())
    }

    /// Proposes a command at replica `id`.
    ///
    /// # Errors
    ///
    /// Returns [`NotLeaderError`] if `id` is crashed or not the leader.
    pub fn propose(&mut self, id: usize, cmd: KvCommand) -> Result<u64, NotLeaderError> {
        let now = self.now;
        let node = self.nodes[id].as_mut().ok_or(NotLeaderError)?;
        let (index, out) = node.propose(cmd)?;
        self.send_all(now, id, out);
        Ok(index)
    }

    /// Crashes a replica (it stops processing; its messages are dropped).
    pub fn crash(&mut self, id: usize) {
        self.nodes[id] = None;
    }

    /// Restarts a crashed replica with an empty volatile state but its
    /// log lost (memory-only model): it rejoins as a fresh follower and
    /// catches up from the leader.
    pub fn restart(&mut self, id: usize, seed: u64) {
        let n = self.nodes.len();
        let mut node = RaftNode::new(id, n, seed, RaftConfig::default());
        node.reset_election_deadline(self.now);
        node.election_deadline = self.now + SimDuration::from_millis(200);
        self.nodes[id] = Some(node);
        self.stores[id] = KvStore::new();
    }

    /// Cuts the (bidirectional) link between two replicas.
    pub fn partition(&mut self, a: usize, b: usize) {
        self.cut.insert((a, b));
        self.cut.insert((b, a));
    }

    /// Isolates `id` from every other replica.
    pub fn isolate(&mut self, id: usize) {
        for other in 0..self.nodes.len() {
            if other != id {
                self.partition(id, other);
            }
        }
    }

    /// Heals all partitions.
    pub fn heal(&mut self) {
        self.cut.clear();
    }

    fn send_all(&mut self, now: SimTime, from: usize, msgs: Vec<(usize, RaftMsg)>) {
        for (to, msg) in msgs {
            if self.cut.contains(&(from, to)) {
                continue;
            }
            self.seq += 1;
            self.queue.push(Reverse(InFlight {
                at: now + self.latency,
                seq: self.seq,
                from,
                to,
                msg,
            }));
        }
    }

    /// Runs the group for `dt`.
    pub fn run_for(&mut self, dt: SimDuration) {
        let end = self.now + dt;
        self.run_until(end);
    }

    /// Runs the group until absolute time `end`.
    pub fn run_until(&mut self, end: SimTime) {
        while self.now < end {
            let next = self.now + self.tick;
            // Deliver messages due in (now, next].
            while let Some(Reverse(head)) = self.queue.peek() {
                if head.at > next {
                    break;
                }
                let Reverse(m) = self.queue.pop().expect("peeked");
                if self.cut.contains(&(m.from, m.to)) {
                    continue;
                }
                let at = m.at;
                if let Some(node) = self.nodes[m.to].as_mut() {
                    self.delivered += 1;
                    let out = node.handle(at, m.from, m.msg);
                    self.send_all(at, m.to, out);
                }
            }
            self.now = next;
            // Timers.
            for i in 0..self.nodes.len() {
                let now = self.now;
                if let Some(node) = self.nodes[i].as_mut() {
                    let out = node.tick(now);
                    self.send_all(now, i, out);
                }
            }
            // Apply commits (snapshot installs first: they replace the
            // whole state machine).
            for i in 0..self.nodes.len() {
                let now = self.now;
                if let Some(node) = self.nodes[i].as_mut() {
                    if let Some(snap) = node.take_pending_install() {
                        self.stores[i].restore(&snap);
                    }
                    for (_, cmd) in node.take_committed() {
                        self.stores[i].apply(&cmd, now);
                    }
                    if let Some(threshold) = self.compaction_threshold {
                        let applied_in_log = node.last_applied().saturating_sub(node.log_offset());
                        if applied_in_log > threshold {
                            let upto = node.last_applied();
                            node.compact(upto, self.stores[i].snapshot());
                        }
                    }
                }
                self.stores[i].expire_leases(now);
            }
        }
    }

    /// Runs until a leader exists or `deadline` passes; returns the
    /// leader id if one emerged.
    pub fn await_leader(&mut self, deadline: SimTime) -> Option<usize> {
        while self.now < deadline {
            if let Some(l) = self.leader() {
                return Some(l);
            }
            self.run_for(SimDuration::from_millis(10));
        }
        self.leader()
    }

    /// Proposes at the current leader and runs until a majority of
    /// replicas applied the command, returning the commit latency.
    ///
    /// # Errors
    ///
    /// Returns [`NotLeaderError`] when no leader exists or replication
    /// does not complete within 10 simulated seconds.
    pub fn replicate_and_measure(&mut self, cmd: KvCommand) -> Result<SimDuration, NotLeaderError> {
        let leader = self.leader().ok_or(NotLeaderError)?;
        let key = cmd.key().to_string();
        let marker = match &cmd {
            KvCommand::Put { value, .. } | KvCommand::PutWithLease { value, .. } => value.to_vec(),
            _ => Vec::new(),
        };
        let start = self.now;
        self.propose(leader, cmd)?;
        let deadline = start + SimDuration::from_secs(10);
        while self.now < deadline {
            let have = self
                .stores
                .iter()
                .filter(|s| s.get(&key).map(|e| e.value.to_vec()) == Some(marker.clone()))
                .count();
            if have * 2 > self.nodes.len() {
                return Ok(self.now.saturating_since(start));
            }
            self.run_for(SimDuration::from_millis(1));
        }
        Err(NotLeaderError)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> RaftCluster {
        RaftCluster::new(n, 7, SimDuration::from_millis(5))
    }

    #[test]
    fn three_replicas_elect_exactly_one_leader() {
        let mut c = cluster(3);
        let leader = c.await_leader(SimTime::from_secs(3)).expect("leader");
        assert!(leader < 3);
        assert_eq!(c.all_leaders().len(), 1);
    }

    #[test]
    fn single_replica_self_elects_and_commits() {
        let mut c = cluster(1);
        let leader = c.await_leader(SimTime::from_secs(2)).expect("self-elect");
        c.propose(leader, KvCommand::put("/x", b"1")).expect("leader");
        c.run_for(SimDuration::from_millis(100));
        assert_eq!(c.committed_value(0, "/x"), Some(b"1".to_vec()));
    }

    #[test]
    fn replication_reaches_every_replica() {
        let mut c = cluster(5);
        let leader = c.await_leader(SimTime::from_secs(3)).expect("leader");
        c.propose(leader, KvCommand::put("/cfg", b"v1")).expect("leader");
        c.run_for(SimDuration::from_millis(500));
        for i in 0..5 {
            assert_eq!(c.committed_value(i, "/cfg"), Some(b"v1".to_vec()), "replica {i}");
        }
    }

    #[test]
    fn proposals_to_followers_are_rejected() {
        let mut c = cluster(3);
        let leader = c.await_leader(SimTime::from_secs(3)).expect("leader");
        let follower = (0..3).find(|&i| i != leader).expect("exists");
        assert_eq!(c.propose(follower, KvCommand::put("/x", b"1")), Err(NotLeaderError));
    }

    #[test]
    fn leader_crash_triggers_failover_and_no_data_loss() {
        let mut c = cluster(3);
        let leader = c.await_leader(SimTime::from_secs(3)).expect("leader");
        c.propose(leader, KvCommand::put("/a", b"1")).expect("leader");
        c.run_for(SimDuration::from_millis(500));
        c.crash(leader);
        let deadline = c.now() + SimDuration::from_secs(3);
        let new_leader = c.await_leader(deadline).expect("failover");
        assert_ne!(new_leader, leader);
        // Committed data survives on the new leader.
        assert_eq!(c.committed_value(new_leader, "/a"), Some(b"1".to_vec()));
        // And the group still accepts writes.
        c.propose(new_leader, KvCommand::put("/b", b"2")).expect("new leader");
        c.run_for(SimDuration::from_millis(500));
        assert_eq!(c.committed_value(new_leader, "/b"), Some(b"2".to_vec()));
    }

    #[test]
    fn isolated_leader_cannot_commit() {
        let mut c = cluster(3);
        let leader = c.await_leader(SimTime::from_secs(3)).expect("leader");
        c.isolate(leader);
        // Old leader cannot replicate; the write must not reach followers.
        let _ = c.propose(leader, KvCommand::put("/lost", b"x"));
        c.run_for(SimDuration::from_secs(2));
        for i in (0..3).filter(|&i| i != leader) {
            assert_eq!(c.committed_value(i, "/lost"), None, "replica {i}");
        }
        // A new leader emerges on the majority side and accepts writes.
        let max_term_leader = c
            .all_leaders()
            .into_iter()
            .max_by_key(|(_, t)| *t)
            .map(|(id, _)| id)
            .expect("majority elects");
        assert_ne!(max_term_leader, leader);
    }

    #[test]
    fn healed_partition_converges_to_one_log() {
        let mut c = cluster(3);
        let leader = c.await_leader(SimTime::from_secs(3)).expect("leader");
        c.isolate(leader);
        c.run_for(SimDuration::from_secs(2));
        let new_leader = c
            .all_leaders()
            .into_iter()
            .max_by_key(|(_, t)| *t)
            .map(|(id, _)| id)
            .expect("majority leader");
        c.propose(new_leader, KvCommand::put("/v", b"new")).expect("majority leader");
        c.run_for(SimDuration::from_millis(500));
        c.heal();
        c.run_for(SimDuration::from_secs(2));
        // Every replica (including the deposed leader) applies the new value.
        for i in 0..3 {
            assert_eq!(c.committed_value(i, "/v"), Some(b"new".to_vec()), "replica {i}");
        }
        assert_eq!(c.all_leaders().len(), 1, "exactly one leader after heal");
    }

    #[test]
    fn restarted_replica_catches_up() {
        let mut c = cluster(3);
        let leader = c.await_leader(SimTime::from_secs(3)).expect("leader");
        c.propose(leader, KvCommand::put("/k", b"v")).expect("leader");
        c.run_for(SimDuration::from_millis(500));
        let victim = (0..3).find(|&i| i != leader).expect("exists");
        c.crash(victim);
        c.run_for(SimDuration::from_millis(300));
        c.restart(victim, 99);
        c.run_for(SimDuration::from_secs(2));
        assert_eq!(c.committed_value(victim, "/k"), Some(b"v".to_vec()));
    }

    #[test]
    fn commit_latency_grows_with_cluster_size() {
        let mut lat3 = None;
        let mut lat7 = None;
        for (n, slot) in [(3usize, &mut lat3), (7usize, &mut lat7)] {
            let mut c = RaftCluster::new(n, 11, SimDuration::from_millis(5));
            c.await_leader(SimTime::from_secs(3)).expect("leader");
            let d = c.replicate_and_measure(KvCommand::put("/m", b"x")).expect("replicates");
            *slot = Some(d);
        }
        let (l3, l7) = (lat3.expect("measured"), lat7.expect("measured"));
        assert!(l3.as_micros() > 0);
        // Same fabric: bigger quorum cannot be faster than a smaller one
        // by more than one tick of slack.
        assert!(l7.as_micros() + 1_000 >= l3.as_micros(), "l3={l3} l7={l7}");
    }

    #[test]
    fn cas_serializes_concurrent_claims() {
        let mut c = cluster(3);
        let leader = c.await_leader(SimTime::from_secs(3)).expect("leader");
        c.propose(
            leader,
            KvCommand::Cas {
                key: "/lock".into(),
                expect: None,
                value: std::sync::Arc::from(*b"a"),
            },
        )
        .expect("leader");
        c.propose(
            leader,
            KvCommand::Cas {
                key: "/lock".into(),
                expect: None,
                value: std::sync::Arc::from(*b"b"),
            },
        )
        .expect("leader");
        c.run_for(SimDuration::from_millis(500));
        assert_eq!(c.committed_value(leader, "/lock"), Some(b"a".to_vec()));
    }

    #[test]
    fn compaction_bounds_log_memory_without_changing_state() {
        let mut plain = cluster(3);
        let mut compacting = cluster(3);
        compacting.enable_compaction(8);
        for c in [&mut plain, &mut compacting] {
            let leader = c.await_leader(SimTime::from_secs(3)).expect("elects");
            for i in 0..60 {
                c.propose(
                    leader,
                    KvCommand::put(format!("/k{}", i % 7), format!("v{i}").as_bytes()),
                )
                .expect("leader");
                c.run_for(SimDuration::from_millis(60));
            }
            c.run_for(SimDuration::from_secs(1));
        }
        // Same applied state on every replica of both clusters.
        for i in 0..3 {
            for k in 0..7 {
                assert_eq!(
                    plain.committed_value(i, &format!("/k{k}")),
                    compacting.committed_value(i, &format!("/k{k}")),
                    "replica {i} key {k}"
                );
            }
        }
        // Memory bound holds only under compaction.
        let max_compacted = (0..3).map(|i| compacting.retained_log_len(i)).max().unwrap();
        let max_plain = (0..3).map(|i| plain.retained_log_len(i)).max().unwrap();
        assert!(max_compacted <= 16, "compacted logs stay small: {max_compacted}");
        assert_eq!(max_plain, 60, "uncompacted logs keep everything");
    }

    #[test]
    fn restarted_replica_catches_up_via_install_snapshot() {
        let mut c = cluster(3);
        c.enable_compaction(5);
        let leader = c.await_leader(SimTime::from_secs(3)).expect("elects");
        for i in 0..30 {
            c.propose(leader, KvCommand::put(format!("/s{i}"), b"v")).expect("leader");
            c.run_for(SimDuration::from_millis(60));
        }
        let victim = (0..3).find(|&i| i != leader).expect("exists");
        c.crash(victim);
        // More writes while the victim is down; the leader compacts them
        // away, so plain log replay can no longer rescue the victim.
        for i in 30..45 {
            if let Some(l) = c.leader() {
                let _ = c.propose(l, KvCommand::put(format!("/s{i}"), b"v"));
            }
            c.run_for(SimDuration::from_millis(60));
        }
        c.restart(victim, 77);
        c.run_for(SimDuration::from_secs(3));
        // The fresh replica holds the full state despite the truncated log.
        for i in 0..45 {
            assert_eq!(
                c.committed_value(victim, &format!("/s{i}")),
                Some(b"v".to_vec()),
                "key {i}"
            );
        }
        assert!(c.retained_log_len(victim) < 45, "victim adopted a snapshot");
    }

    #[test]
    fn determinism_same_seed_same_leader() {
        let l1 = cluster(5).await_leader(SimTime::from_secs(3));
        let l2 = cluster(5).await_leader(SimTime::from_secs(3));
        assert_eq!(l1, l2);
    }
}
