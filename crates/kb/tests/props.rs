//! Property-based tests of Raft safety under random fault schedules.

use proptest::prelude::*;

use myrtus_continuum::time::{SimDuration, SimTime};
use myrtus_kb::command::KvCommand;
use myrtus_kb::raft::RaftCluster;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under a random schedule of isolations and heals, once the fabric
    /// heals and quiesces: at most one leader remains, and every replica
    /// applied the same value for every written key (state-machine
    /// safety).
    #[test]
    fn replicas_converge_after_arbitrary_partitions(
        seed in 0u64..1_000,
        events in proptest::collection::vec((0usize..5, 0u8..2), 0..6),
    ) {
        let mut cluster = RaftCluster::new(5, seed, SimDuration::from_millis(5));
        cluster.await_leader(SimTime::from_secs(3)).expect("elects");
        let mut written: Vec<String> = Vec::new();
        for (i, (node, kind)) in events.iter().enumerate() {
            match kind {
                0 => cluster.isolate(*node),
                _ => cluster.heal(),
            }
            cluster.run_for(SimDuration::from_millis(400));
            // Try to write through whoever leads the majority now.
            if let Some(leader) = cluster.leader() {
                let key = format!("/k{i}");
                if cluster
                    .propose(leader, KvCommand::put(&key, format!("v{i}").as_bytes()))
                    .is_ok()
                {
                    written.push(key);
                }
            }
        }
        cluster.heal();
        cluster.run_for(SimDuration::from_secs(4));

        // Single-leader safety at quiescence.
        let leaders = cluster.all_leaders();
        let max_term = leaders.iter().map(|(_, t)| *t).max().unwrap_or(0);
        let top: Vec<_> = leaders.iter().filter(|(_, t)| *t == max_term).collect();
        prop_assert!(top.len() <= 1, "at most one leader in the highest term: {leaders:?}");

        // Convergence: all replicas agree on every key they hold.
        for key in &written {
            let values: Vec<Option<Vec<u8>>> =
                (0..5).map(|i| cluster.committed_value(i, key)).collect();
            let reference = values.iter().flatten().next().cloned();
            for v in values.iter().flatten() {
                prop_assert_eq!(Some(v.clone()), reference.clone(), "key {}", key);
            }
        }
    }

    /// Committed writes through a stable leader are never lost, whatever
    /// the write mix.
    #[test]
    fn committed_writes_survive(
        keys in proptest::collection::vec("[a-d]{1,3}", 1..12),
    ) {
        let mut cluster = RaftCluster::new(3, 7, SimDuration::from_millis(5));
        let leader = cluster.await_leader(SimTime::from_secs(3)).expect("elects");
        for (i, k) in keys.iter().enumerate() {
            cluster
                .propose(leader, KvCommand::put(format!("/{k}"), format!("{i}").as_bytes()))
                .expect("leader accepts");
        }
        cluster.run_for(SimDuration::from_secs(1));
        // Last write per key wins everywhere.
        let mut expected = std::collections::BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            expected.insert(format!("/{k}"), format!("{i}"));
        }
        for (k, v) in &expected {
            for replica in 0..3 {
                prop_assert_eq!(
                    cluster.committed_value(replica, k),
                    Some(v.as_bytes().to_vec()),
                    "replica {} key {}",
                    replica,
                    k
                );
            }
        }
    }
}
