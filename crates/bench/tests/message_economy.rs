//! E3's uncontended-snapshot measurement as a gate: taking the timer
//! out of Algorithm 3's snapshot path must not buy latency with
//! messages.

use sss_baselines::Dgfr2;
use sss_bench::{measure_single_op, N_SWEEP};
use sss_core::{Alg3, Alg3Config};
use sss_sim::SimConfig;
use sss_types::{NodeId, SnapshotOp};

/// Snapshot-path messages of one uncontended snapshot at `p0` under the
/// round-paced Algorithm 3 this repository ran before its base calls
/// became demand-driven, for each `n` of [`N_SWEEP`] at `δ = 0`.
const ROUND_PACED_DELTA0: [u64; 4] = [28, 32, 168, 526];

fn alg3_snapshot_msgs(n: usize, delta: u64) -> u64 {
    measure_single_op(
        SimConfig::small(n),
        move |id| Alg3::new(id, n, Alg3Config { delta }),
        NodeId(0),
        SnapshotOp::Snapshot,
    )
    .snap_msgs
}

#[test]
fn an_uncontended_snapshot_costs_no_more_messages_than_before() {
    for (&n, &before) in N_SWEEP.iter().zip(&ROUND_PACED_DELTA0) {
        let dgfr2 = measure_single_op(
            SimConfig::small(n),
            move |id| Dgfr2::new(id, n),
            NodeId(0),
            SnapshotOp::Snapshot,
        )
        .op_msgs;
        let delta0 = alg3_snapshot_msgs(n, 0);
        assert!(delta0 <= before, "n={n}: δ=0 {delta0} > {before}");
        assert!(delta0 <= dgfr2, "n={n}: δ=0 {delta0} > DGFR2 {dgfr2}");
        // δ > 0: only the initiator queries, O(n) messages.
        let delta16 = alg3_snapshot_msgs(n, 16);
        assert!(delta16 <= 6 * n as u64, "n={n}: δ=16 {delta16} > 6n");
    }
}
