//! §5 adversary-facing properties of the bounded construction:
//!
//! * property test — the epoch envelope rejects *pre-reset replays*: an
//!   inner message stamped with any older epoch leaves the register
//!   array, the indices and the outgoing wire untouched, and is counted
//!   by `stale_epoch_dropped`;
//! * integration — a reset whose coordinator crashes mid-`Sync` while a
//!   partition denies the survivors a majority still terminates once
//!   the network heals, via the coordinator-handoff rotation.

use proptest::prelude::*;
use sss_chaos::{run_case_sim, Scenario, StrategyKind, INV_RESET_TERMINATION};
use sss_core::{Alg1, Alg1Msg, Bounded, BoundedConfig, BoundedMsg, HasIndices, ResetMsg};
use sss_net::{FaultEvent, FaultPlan, LinkConfig, WorkloadSpec};
use sss_obs::TraceEvent;
use sss_types::{Effects, NodeId, Protocol, RegArray, Tagged};

proptest! {
    /// Replaying any message from a pre-reset epoch into a node that
    /// already moved on must change nothing: same registers, same
    /// indices, nothing sent, one more stale drop. The same payload
    /// stamped with the *current* epoch is applied — proving the
    /// envelope, not general deafness, did the rejecting.
    #[test]
    fn epoch_envelope_rejects_pre_reset_replays(
        epoch in 1u64..64,
        gap in 1u64..64,
        val in 1u64..u64::MAX,
        ts in 1u64..500,
    ) {
        let stale_epoch = epoch - 1 - (gap - 1) % epoch;
        let n = 3;
        let mut node = Bounded::new(Alg1::new(NodeId(1), n), BoundedConfig { max_int: 1 << 32 });
        let mut fx = Effects::new();

        // Drive the node to `epoch` through the public reset protocol.
        node.on_message(
            NodeId(0),
            BoundedMsg::Reset(ResetMsg::Install { epoch, reg: RegArray::bottom(n) }),
            &mut fx,
        );
        prop_assert_eq!(node.epoch(), epoch);
        let _ = fx.take_sends();

        let reg_before = node.inner().export_reg();
        let idx_before = node.inner().max_index();
        let drops_before = node.stats().stale_epoch_dropped;
        let replay = Alg1Msg::Gossip { cell: Tagged::new(val, ts) };

        node.on_message(
            NodeId(0),
            BoundedMsg::Inner { epoch: stale_epoch, msg: replay.clone() },
            &mut fx,
        );
        prop_assert_eq!(node.inner().export_reg(), reg_before.clone(), "registers changed");
        prop_assert_eq!(node.inner().max_index(), idx_before, "indices changed");
        prop_assert_eq!(node.stats().stale_epoch_dropped, drops_before + 1);
        prop_assert!(fx.take_sends().is_empty(), "stale drop must be silent");

        // Control: the identical payload in the current epoch is heard.
        node.on_message(NodeId(0), BoundedMsg::Inner { epoch, msg: replay }, &mut fx);
        prop_assert!(node.inner().max_index() >= ts.max(idx_before));
    }
}

/// The hand-built §5 worst case: every index starts at `MAXINT` (so the
/// first writes demand a reset), the default coordinator crashes before
/// the sync phase can finish, and a partition denies every surviving
/// group a majority — the reset *cannot* terminate until the heal. Once
/// the network heals, the handoff rotation must finish the job, and the
/// late-revived coordinator must catch up to the same epoch.
#[test]
fn reset_survives_coordinator_crash_under_partition() {
    let n = 4;
    let heal_at = 6_000;
    let plan = FaultPlan::with_events(
        7,
        vec![
            // Coordinator (lowest id) dies as the first wraps trigger.
            (200, FaultEvent::Crash(NodeId(0))),
            // Survivors split 1 / {2,3}: no group holds a majority (3).
            (
                250,
                FaultEvent::Partition(vec![vec![NodeId(1)], vec![NodeId(2), NodeId(3)]]),
            ),
            (heal_at, FaultEvent::Heal),
            (heal_at + 500, FaultEvent::Resume(NodeId(0))),
        ],
    );
    assert_eq!(plan.validate(n), Ok(()));
    let sc = Scenario {
        strategy: StrategyKind::CounterExhaustion,
        n,
        seed: 7,
        plan,
        workload: WorkloadSpec {
            ops_per_node: 6,
            write_ratio: 0.6,
            think: (0, 300),
            seed: 7,
            op_timeout: 25_000,
        },
        net: LinkConfig {
            delay_min: 1,
            delay_max: 40,
            loss: 0.0,
            dup: 0.0,
            capacity: 128,
        },
    };
    let outcome = run_case_sim(&sc, |id| {
        let cfg = BoundedConfig::default();
        let mut p = Bounded::new(Alg1::new(id, n), cfg);
        p.seed_indices_for_test(cfg.max_int - 2);
        p
    });
    assert!(
        outcome.oracle.ok(),
        "oracle violations: {:?}",
        outcome
            .oracle
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
    );
    let probes = &outcome.report.probes;
    assert_eq!(probes.len(), n);
    assert!(
        probes.iter().all(|p| p.epoch >= 1 && !p.wrapping),
        "every node must finish the reset: {probes:?}"
    );
    let survival = outcome
        .oracle
        .survival
        .as_ref()
        .expect("reset activity audited");
    assert!(
        survival.held.contains(&INV_RESET_TERMINATION),
        "termination must hold: {survival:?}"
    );
    // The reset could not have finished while no majority existed: some
    // node's epoch change must land after the heal.
    let last_change = outcome
        .records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::EpochChange { .. }))
        .map(|r| r.at)
        .max()
        .expect("epoch changes recorded in the trace");
    assert!(
        last_change >= heal_at,
        "reset terminated at t={last_change}, before the heal at t={heal_at}"
    );
}
