//! Replicated state-machine commands.

use std::sync::Arc;

/// A command applied to the replicated key-value state machine once its
/// log entry commits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvCommand {
    /// Sets `key` to `value`.
    Put {
        /// Key.
        key: String,
        /// Value bytes.
        value: Arc<[u8]>,
    },
    /// Removes `key`.
    Delete {
        /// Key.
        key: String,
    },
    /// Compare-and-swap: sets `key` to `value` only if the current value
    /// equals `expect` (`None` = key absent).
    Cas {
        /// Key.
        key: String,
        /// Expected current value.
        expect: Option<Arc<[u8]>>,
        /// New value.
        value: Arc<[u8]>,
    },
    /// Attaches a lease to `key`: the key is dropped when the lease
    /// expires without renewal.
    PutWithLease {
        /// Key.
        key: String,
        /// Value bytes.
        value: Arc<[u8]>,
        /// Lease time-to-live in microseconds of logical time.
        ttl_us: u64,
    },
}

impl KvCommand {
    /// Convenience constructor for a UTF-8 put.
    pub fn put(key: impl Into<String>, value: impl AsRef<[u8]>) -> Self {
        KvCommand::Put { key: key.into(), value: Arc::from(value.as_ref()) }
    }

    /// Convenience constructor for a delete.
    pub fn delete(key: impl Into<String>) -> Self {
        KvCommand::Delete { key: key.into() }
    }

    /// The key this command touches.
    pub fn key(&self) -> &str {
        match self {
            KvCommand::Put { key, .. }
            | KvCommand::Delete { key }
            | KvCommand::Cas { key, .. }
            | KvCommand::PutWithLease { key, .. } => key,
        }
    }
}

/// A change event delivered to watchers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchEvent {
    /// A key was created or updated.
    Put {
        /// Key.
        key: String,
        /// New value.
        value: Vec<u8>,
        /// Store revision at which the change happened.
        revision: u64,
    },
    /// A key was removed (explicitly or by lease expiry).
    Delete {
        /// Key.
        key: String,
        /// Store revision at which the change happened.
        revision: u64,
    },
}

impl WatchEvent {
    /// The key the event refers to.
    pub fn key(&self) -> &str {
        match self {
            WatchEvent::Put { key, .. } | WatchEvent::Delete { key, .. } => key,
        }
    }

    /// The revision at which the event happened.
    pub fn revision(&self) -> u64 {
        match self {
            WatchEvent::Put { revision, .. } | WatchEvent::Delete { revision, .. } => *revision,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_key() {
        let p = KvCommand::put("/a", b"1");
        assert_eq!(p.key(), "/a");
        let d = KvCommand::delete("/b");
        assert_eq!(d.key(), "/b");
        let c = KvCommand::Cas { key: "/c".into(), expect: None, value: Arc::from(*b"x") };
        assert_eq!(c.key(), "/c");
    }

    #[test]
    fn watch_event_accessors() {
        let e = WatchEvent::Put { key: "/k".into(), value: b"v".to_vec(), revision: 4 };
        assert_eq!(e.key(), "/k");
        assert_eq!(e.revision(), 4);
        let d = WatchEvent::Delete { key: "/k".into(), revision: 5 };
        assert_eq!(d.revision(), 5);
    }
}
