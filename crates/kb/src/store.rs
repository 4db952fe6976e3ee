//! The key-value state machine applied from committed Raft entries.
//!
//! Mirrors the etcd contract the paper considers for the shared KB:
//! revisioned puts/deletes, compare-and-swap, prefix range reads, watches
//! and leases. The store itself is deterministic and single-threaded;
//! replication and consistency come from the [`raft`](crate::raft) layer.

use std::collections::BTreeMap;
use std::sync::Arc;

use myrtus_continuum::time::SimTime;

use crate::command::{KvCommand, WatchEvent};

/// One stored value with its metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Value bytes.
    pub value: Arc<[u8]>,
    /// Revision of the last modification.
    pub mod_revision: u64,
    /// Lease expiry, if the key is leased.
    pub lease_expiry: Option<SimTime>,
}

/// A serializable point-in-time snapshot of a [`KvStore`] (used by Raft
/// log compaction / InstallSnapshot).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KvSnapshot {
    /// Store revision at snapshot time.
    pub revision: u64,
    /// Live entries: `(key, value, mod_revision, lease_expiry_us)`.
    pub entries: Vec<(String, Vec<u8>, u64, Option<u64>)>,
}

/// The deterministic KV state machine.
///
/// # Examples
///
/// ```
/// use myrtus_kb::command::KvCommand;
/// use myrtus_kb::store::KvStore;
/// use myrtus_continuum::time::SimTime;
///
/// let mut kv = KvStore::new();
/// kv.apply(&KvCommand::put("/registry/nodes/0", b"up"), SimTime::ZERO);
/// assert_eq!(kv.get("/registry/nodes/0").map(|e| e.value.as_ref()), Some(&b"up"[..]));
/// assert_eq!(kv.revision(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct KvStore {
    map: BTreeMap<String, Entry>,
    revision: u64,
    events: Vec<WatchEvent>,
}

impl KvStore {
    /// Creates an empty store at revision 0.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Current store revision (increments on every successful mutation).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Reads a key.
    pub fn get(&self, key: &str) -> Option<&Entry> {
        self.map.get(key)
    }

    /// Reads every key with the given prefix, in key order.
    pub fn range(&self, prefix: &str) -> Vec<(&str, &Entry)> {
        self.map
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, e)| (k.as_str(), e))
            .collect()
    }

    /// Applies a committed command at logical time `now`. Returns `true`
    /// when the command mutated the store (CAS may fail benignly).
    pub fn apply(&mut self, cmd: &KvCommand, now: SimTime) -> bool {
        match cmd {
            KvCommand::Put { key, value } => {
                self.put(key.clone(), value.clone(), None);
                true
            }
            KvCommand::PutWithLease { key, value, ttl_us } => {
                let expiry = now + myrtus_continuum::time::SimDuration::from_micros(*ttl_us);
                self.put(key.clone(), value.clone(), Some(expiry));
                true
            }
            KvCommand::Delete { key } => {
                if self.map.remove(key).is_some() {
                    self.revision += 1;
                    self.events
                        .push(WatchEvent::Delete { key: key.clone(), revision: self.revision });
                    true
                } else {
                    false
                }
            }
            KvCommand::Cas { key, expect, value } => {
                let current = self.map.get(key).map(|e| &e.value);
                if current == expect.as_ref() {
                    self.put(key.clone(), value.clone(), None);
                    true
                } else {
                    false
                }
            }
        }
    }

    fn put(&mut self, key: String, value: Arc<[u8]>, lease_expiry: Option<SimTime>) {
        self.revision += 1;
        self.events.push(WatchEvent::Put {
            key: key.clone(),
            value: value.to_vec(),
            revision: self.revision,
        });
        self.map.insert(key, Entry { value, mod_revision: self.revision, lease_expiry });
    }

    /// Expires leased keys whose TTL passed; call on every logical tick.
    /// Returns the number of keys dropped.
    pub fn expire_leases(&mut self, now: SimTime) -> usize {
        let expired: Vec<String> = self
            .map
            .iter()
            .filter(|(_, e)| e.lease_expiry.is_some_and(|t| t <= now))
            .map(|(k, _)| k.clone())
            .collect();
        for k in &expired {
            self.map.remove(k);
            self.revision += 1;
            self.events.push(WatchEvent::Delete { key: k.clone(), revision: self.revision });
        }
        expired.len()
    }

    /// Drains watch events with revision greater than `after_revision`
    /// whose key starts with `prefix`.
    pub fn watch_since(&self, prefix: &str, after_revision: u64) -> Vec<WatchEvent> {
        self.events
            .iter()
            .filter(|e| e.revision() > after_revision && e.key().starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Compacts the event history, dropping events at or below
    /// `revision` (etcd compaction).
    pub fn compact(&mut self, revision: u64) {
        self.events.retain(|e| e.revision() > revision);
    }

    /// Captures a snapshot of the live state (watch history excluded —
    /// snapshot installation implies a watch restart, as in etcd).
    pub fn snapshot(&self) -> KvSnapshot {
        KvSnapshot {
            revision: self.revision,
            entries: self
                .map
                .iter()
                .map(|(k, e)| {
                    (
                        k.clone(),
                        e.value.to_vec(),
                        e.mod_revision,
                        e.lease_expiry.map(|t| t.as_micros()),
                    )
                })
                .collect(),
        }
    }

    /// Replaces the store's state with a snapshot.
    pub fn restore(&mut self, snap: &KvSnapshot) {
        self.map.clear();
        self.events.clear();
        self.revision = snap.revision;
        for (k, v, rev, lease) in &snap.entries {
            self.map.insert(
                k.clone(),
                Entry {
                    value: Arc::from(v.as_slice()),
                    mod_revision: *rev,
                    lease_expiry: lease.map(SimTime::from_micros),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use myrtus_continuum::time::SimDuration;

    #[test]
    fn put_get_delete_with_revisions() {
        let mut kv = KvStore::new();
        assert!(kv.apply(&KvCommand::put("/a", b"1"), SimTime::ZERO));
        assert!(kv.apply(&KvCommand::put("/a", b"2"), SimTime::ZERO));
        assert_eq!(kv.revision(), 2);
        assert_eq!(kv.get("/a").map(|e| e.mod_revision), Some(2));
        assert!(kv.apply(&KvCommand::delete("/a"), SimTime::ZERO));
        assert!(kv.get("/a").is_none());
        assert!(!kv.apply(&KvCommand::delete("/a"), SimTime::ZERO), "double delete no-ops");
        assert_eq!(kv.revision(), 3);
    }

    #[test]
    fn cas_only_succeeds_on_match() {
        let mut kv = KvStore::new();
        // Create-if-absent.
        assert!(kv.apply(
            &KvCommand::Cas { key: "/l".into(), expect: None, value: Arc::from(*b"me") },
            SimTime::ZERO
        ));
        // Second claimant loses.
        assert!(!kv.apply(
            &KvCommand::Cas { key: "/l".into(), expect: None, value: Arc::from(*b"you") },
            SimTime::ZERO
        ));
        assert_eq!(kv.get("/l").map(|e| e.value.as_ref()), Some(&b"me"[..]));
        // Matching swap wins.
        assert!(kv.apply(
            &KvCommand::Cas {
                key: "/l".into(),
                expect: Some(Arc::from(*b"me")),
                value: Arc::from(*b"you"),
            },
            SimTime::ZERO
        ));
    }

    #[test]
    fn range_is_prefix_scoped_and_ordered() {
        let mut kv = KvStore::new();
        for k in ["/reg/n/2", "/reg/n/1", "/reg/links/0", "/other"] {
            kv.apply(&KvCommand::put(k, b"x"), SimTime::ZERO);
        }
        let keys: Vec<&str> = kv.range("/reg/n/").iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec!["/reg/n/1", "/reg/n/2"]);
        assert_eq!(kv.range("/nope").len(), 0);
    }

    #[test]
    fn leases_expire() {
        let mut kv = KvStore::new();
        kv.apply(
            &KvCommand::PutWithLease {
                key: "/hb/node0".into(),
                value: Arc::from(*b"alive"),
                ttl_us: 1_000,
            },
            SimTime::ZERO,
        );
        assert_eq!(kv.expire_leases(SimTime::from_micros(999)), 0);
        assert_eq!(kv.expire_leases(SimTime::from_micros(1_000)), 1);
        assert!(kv.get("/hb/node0").is_none());
    }

    #[test]
    fn lease_renewal_extends_expiry() {
        let mut kv = KvStore::new();
        let put = |kv: &mut KvStore, now: SimTime| {
            kv.apply(
                &KvCommand::PutWithLease {
                    key: "/hb".into(),
                    value: Arc::from(*b"1"),
                    ttl_us: 1_000,
                },
                now,
            );
        };
        put(&mut kv, SimTime::ZERO);
        put(&mut kv, SimTime::from_micros(800)); // renew
        assert_eq!(kv.expire_leases(SimTime::from_micros(1_200)), 0);
        assert_eq!(kv.expire_leases(SimTime::from_micros(1_800)), 1);
    }

    #[test]
    fn watches_see_prefix_events_after_revision() {
        let mut kv = KvStore::new();
        kv.apply(&KvCommand::put("/a/1", b"x"), SimTime::ZERO);
        let rev = kv.revision();
        kv.apply(&KvCommand::put("/a/2", b"y"), SimTime::ZERO);
        kv.apply(&KvCommand::put("/b/1", b"z"), SimTime::ZERO);
        kv.apply(&KvCommand::delete("/a/1"), SimTime::ZERO);
        let events = kv.watch_since("/a/", rev);
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], WatchEvent::Put { .. }));
        assert!(matches!(events[1], WatchEvent::Delete { .. }));
    }

    #[test]
    fn compaction_drops_old_events() {
        let mut kv = KvStore::new();
        kv.apply(&KvCommand::put("/a", b"1"), SimTime::ZERO);
        kv.apply(&KvCommand::put("/a", b"2"), SimTime::ZERO);
        kv.compact(1);
        assert_eq!(kv.watch_since("/", 0).len(), 1);
        let d = SimDuration::from_micros(1);
        let _ = d; // silence unused in this test module
    }

    #[test]
    fn snapshot_restore_round_trips_state() {
        let mut kv = KvStore::new();
        kv.apply(&KvCommand::put("/a", b"1"), SimTime::ZERO);
        kv.apply(
            &KvCommand::PutWithLease {
                key: "/lease".into(),
                value: Arc::from(*b"x"),
                ttl_us: 5_000,
            },
            SimTime::from_micros(100),
        );
        kv.apply(&KvCommand::put("/b", b"2"), SimTime::ZERO);
        let snap = kv.snapshot();
        let mut restored = KvStore::new();
        restored.restore(&snap);
        assert_eq!(restored.revision(), kv.revision());
        assert_eq!(restored.len(), kv.len());
        assert_eq!(
            restored.get("/a").map(|e| e.value.clone()),
            kv.get("/a").map(|e| e.value.clone())
        );
        // Watch history does not survive (watchers must resubscribe) …
        assert!(restored.watch_since("/", 0).is_empty());
        // … but lease expiry does.
        assert_eq!(restored.expire_leases(SimTime::from_micros(6_000)), 1);
    }

    #[test]
    fn identical_command_sequences_converge() {
        // Determinism property needed by Raft: same commands ⇒ same state.
        let cmds = vec![
            KvCommand::put("/a", b"1"),
            KvCommand::put("/b", b"2"),
            KvCommand::delete("/a"),
            KvCommand::Cas {
                key: "/b".into(),
                expect: Some(Arc::from(*b"2")),
                value: Arc::from(*b"3"),
            },
        ];
        let mut s1 = KvStore::new();
        let mut s2 = KvStore::new();
        for c in &cmds {
            s1.apply(c, SimTime::ZERO);
        }
        for c in &cmds {
            s2.apply(c, SimTime::ZERO);
        }
        assert_eq!(s1.revision(), s2.revision());
        assert_eq!(
            s1.range("/").iter().map(|(k, e)| (*k, e.value.clone())).collect::<Vec<_>>(),
            s2.range("/").iter().map(|(k, e)| (*k, e.value.clone())).collect::<Vec<_>>()
        );
    }
}
