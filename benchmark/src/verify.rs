//! The correctness gate every run passes through: the linearizability
//! checker on a bounded piece of the history, and O(1)-per-operation
//! sanity checks on all of it.

use crate::measure::Measured;
use sss_types::{History, NodeId, OpResponse, SnapshotOp, SnapshotView, Value};
use std::time::Instant;

/// Operations handed to the checker per run. The checker is polynomial:
/// a full 180k-operation history takes ~10 s to check, a 20k prefix a
/// fraction of a second.
pub const PREFIX_OPS: usize = 20_000;

/// The operations of `history` invoked before its `max_ops`-th
/// invocation, as they stood at that instant: an operation that had not
/// yet responded at the cut is pending (the checker treats pending
/// operations as possibly effective), so the prefix is itself a valid
/// history of the same run.
pub fn time_prefix(history: &History, max_ops: usize) -> History {
    let records = history.records();
    let Some(cut) = records.get(max_ops).map(|r| r.invoked_at) else {
        return history.clone();
    };
    let mut out = History::new();
    for r in records.iter().filter(|r| r.invoked_at < cut) {
        out.record_invoke(r.node, r.id, r.op, r.invoked_at);
        match (r.completed_at, &r.response) {
            (Some(at), _) if at >= cut => {}
            (Some(at), _) if r.aborted => out.record_abort(r.id, at),
            (Some(at), Some(resp)) => out.record_complete(r.id, resp.clone(), at),
            _ => {}
        }
    }
    out
}

/// What the checker gate found.
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations the checker verified.
    pub ops_verified: u64,
    /// Wall time the check took, µs.
    pub check_us: u64,
    /// Violations, rendered (empty = linearizable).
    pub violations: Vec<String>,
}

impl Gate {
    /// Files the gate's findings and its cost with the pass.
    pub fn record(self, m: &mut Measured) {
        m.counts
            .insert("checker.ops_verified", self.ops_verified as f64);
        m.counts.insert("checker.check_us", self.check_us as f64);
        m.violations.extend(self.violations);
    }
}

/// Runs the linearizability checker on `history` (`n` registers).
pub fn check(history: &History, n: usize) -> Gate {
    let start = Instant::now();
    let verdict = sss_checker::check(history, n);
    Gate {
        ops_verified: history.len() as u64,
        check_us: start.elapsed().as_micros() as u64,
        violations: verdict
            .violations
            .iter()
            .take(5)
            .map(|v| format!("checker: {v}"))
            .collect(),
    }
}

/// Tracks, for one observer, that the views it sees are ordered and
/// hold only values their writers wrote.
#[derive(Debug)]
pub struct ViewSanity {
    last_ts: Vec<u64>,
    sequential: bool,
}

impl ViewSanity {
    /// An observer whose `n`-register views come from one sequential
    /// client: each must be at least the one before it.
    pub fn sequential(n: usize) -> Self {
        ViewSanity {
            last_ts: vec![0; n],
            sequential: true,
        }
    }

    /// An observer of views from concurrent snapshots, seen in any
    /// order: linearizable views form a chain, so each must be
    /// comparable (entirely ≥ or entirely ≤) with the largest so far.
    pub fn concurrent(n: usize) -> Self {
        ViewSanity {
            last_ts: vec![0; n],
            sequential: false,
        }
    }

    /// Checks `view` against the views this observer saw before and
    /// against `written(register, value)`; returns the first problem.
    pub fn observe(
        &mut self,
        view: &SnapshotView,
        written: impl Fn(NodeId, Value) -> bool,
    ) -> Result<(), String> {
        let (mut ahead, mut behind) = (false, false);
        for (k, cell) in view.iter() {
            if let Some(v) = cell.value() {
                if !written(k, v) {
                    return Err(format!("view holds {v:#x} for {k:?}, which nobody wrote"));
                }
            }
            ahead |= cell.ts > self.last_ts[k.index()];
            behind |= cell.ts < self.last_ts[k.index()];
        }
        if behind && (ahead || self.sequential) {
            let ts = view.timestamps();
            return Err(if ahead {
                format!("views {ts:?} and {:?} are incomparable", self.last_ts)
            } else {
                format!("view went backwards: {ts:?} after {:?}", self.last_ts)
            });
        }
        if !behind {
            self.last_ts = view.timestamps();
        }
        Ok(())
    }
}

/// Sanity over every snapshot of `history` invoked at or after `from`:
/// views hold only values the history's writes wrote, and the views one
/// node's sequential client sees never go backwards.
pub fn history_sanity(history: &History, n: usize, from: u64) -> Vec<String> {
    // Values are `unique_value(node, seq)` with per-node increasing
    // `seq`, so "written" is one comparison against the node's largest.
    let mut max_written = vec![0 as Value; n];
    for r in history.records() {
        if let SnapshotOp::Write(v) = r.op {
            let slot = &mut max_written[r.node.index()];
            *slot = (*slot).max(v);
        }
    }
    let floor = |k: NodeId| sss_workload::unique_value(k, 0);
    let mut observers: Vec<ViewSanity> = (0..n).map(|_| ViewSanity::sequential(n)).collect();
    let mut problems = Vec::new();
    for r in history.records().iter().filter(|r| r.invoked_at >= from) {
        let Some(OpResponse::Snapshot(view)) = &r.response else {
            continue;
        };
        let verdict = observers[r.node.index()]
            .observe(view, |k, v| v > floor(k) && v <= max_written[k.index()]);
        if let Err(e) = verdict {
            problems.push(format!("sanity: {:?} at {:?}: {e}", r.id, r.node));
            if problems.len() >= 5 {
                break;
            }
        }
    }
    problems
}

/// `view` with register 0 rewritten to a value nobody wrote.
pub fn tamper_view(view: &SnapshotView) -> SnapshotView {
    view.iter()
        .map(|(k, mut cell)| {
            if k == NodeId(0) {
                cell.val = cell.val.wrapping_add(0x5EED);
                cell.ts = cell.ts.max(1);
            }
            cell
        })
        .collect()
}

/// Self-test hook (`--tamper`): edits the first completed snapshot's
/// view with [`tamper_view`], so a run can show that the gate fails and
/// the process exits 1.
pub fn tamper(history: &History) -> History {
    let mut out = History::new();
    let mut done = false;
    for r in history.records() {
        out.record_invoke(r.node, r.id, r.op, r.invoked_at);
        let Some(at) = r.completed_at else { continue };
        match &r.response {
            _ if r.aborted => out.record_abort(r.id, at),
            Some(OpResponse::Snapshot(view)) if !done => {
                done = true;
                out.record_complete(r.id, OpResponse::Snapshot(tamper_view(view)), at);
            }
            Some(resp) => out.record_complete(r.id, resp.clone(), at),
            None => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_types::{OpId, Tagged};
    use sss_workload::unique_value;

    fn view(cells: &[(u64, u64)]) -> SnapshotView {
        cells.iter().map(|&(val, ts)| Tagged { val, ts }).collect()
    }

    /// Two nodes; node 0 writes seq 1..=3, node 1 snapshots after each.
    fn sample_history() -> History {
        let mut h = History::new();
        let mut id = 0;
        for seq in 1..=3u64 {
            let t = seq * 100;
            let v = unique_value(NodeId(0), seq);
            h.record_invoke(NodeId(0), OpId(id), SnapshotOp::Write(v), t);
            h.record_complete(OpId(id), OpResponse::WriteDone, t + 10);
            id += 1;
            h.record_invoke(NodeId(1), OpId(id), SnapshotOp::Snapshot, t + 20);
            let resp = OpResponse::Snapshot(view(&[(v, seq), (0, 0)]));
            h.record_complete(OpId(id), resp, t + 30);
            id += 1;
        }
        h
    }

    #[test]
    fn prefix_keeps_ops_invoked_before_the_cut_and_reopens_the_rest() {
        let mut h = sample_history();
        // A long write that is still in flight when later ops begin.
        let long = unique_value(NodeId(1), 1);
        h.record_invoke(NodeId(1), OpId(99), SnapshotOp::Write(long), 305);
        h.record_complete(OpId(99), OpResponse::WriteDone, 900);
        // Cut at the invocation with index 4 (the write invoked at 300).
        let p = time_prefix(&h, 4);
        assert_eq!(p.len(), 4, "ops invoked at t < 300");
        assert_eq!(p.pending().count(), 0);
        // Cut at index 5 (the snapshot invoked at 320): the write at 300
        // responded at 310 and stays complete; the long write invoked at
        // 305 responds at 900, after the cut, and becomes pending.
        let p = time_prefix(&h, 5);
        assert_eq!(p.len(), 6);
        let pending: Vec<OpId> = p.pending().map(|r| r.id).collect();
        assert_eq!(pending, vec![OpId(99)]);
        assert!(check(&p, 2).violations.is_empty());
        let all = time_prefix(&h, 100);
        assert_eq!(all.len(), h.len(), "a short history is returned whole");
    }

    #[test]
    fn prefix_marks_ops_in_flight_at_the_cut_as_pending() {
        let mut h = History::new();
        h.record_invoke(
            NodeId(0),
            OpId(0),
            SnapshotOp::Write(unique_value(NodeId(0), 1)),
            10,
        );
        h.record_invoke(NodeId(1), OpId(1), SnapshotOp::Snapshot, 20);
        h.record_complete(OpId(0), OpResponse::WriteDone, 50);
        h.record_complete(OpId(1), OpResponse::Snapshot(view(&[(0, 0), (0, 0)])), 25);
        h.record_invoke(NodeId(1), OpId(2), SnapshotOp::Snapshot, 30);
        let p = time_prefix(&h, 2);
        assert_eq!(p.len(), 2);
        let pending: Vec<OpId> = p.pending().map(|r| r.id).collect();
        assert_eq!(
            pending,
            vec![OpId(0)],
            "the write responds at 50, after the cut at 30"
        );
        assert!(check(&p, 2).violations.is_empty());
    }

    #[test]
    fn clean_history_passes_and_an_edited_view_fails_both_gates() {
        let h = sample_history();
        assert!(check(&h, 2).violations.is_empty());
        assert!(history_sanity(&h, 2, 0).is_empty());
        let bad = tamper(&h);
        assert!(!check(&bad, 2).violations.is_empty(), "checker must object");
        assert!(!history_sanity(&bad, 2, 0).is_empty(), "sanity must object");
    }

    #[test]
    fn a_view_that_goes_backwards_is_caught() {
        let mut s = ViewSanity::sequential(2);
        let any = |_: NodeId, _: Value| true;
        assert!(s.observe(&view(&[(5, 2), (0, 0)]), any).is_ok());
        assert!(s.observe(&view(&[(5, 2), (9, 1)]), any).is_ok());
        let err = s.observe(&view(&[(4, 1), (9, 1)]), any).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn concurrent_views_may_arrive_out_of_order_but_must_form_a_chain() {
        let mut s = ViewSanity::concurrent(2);
        let any = |_: NodeId, _: Value| true;
        assert!(s.observe(&view(&[(5, 2), (9, 1)]), any).is_ok());
        assert!(
            s.observe(&view(&[(4, 1), (9, 1)]), any).is_ok(),
            "older, but comparable"
        );
        assert!(s.observe(&view(&[(6, 3), (9, 1)]), any).is_ok());
        let err = s.observe(&view(&[(7, 4), (0, 0)]), any).unwrap_err();
        assert!(err.contains("incomparable"), "{err}");
    }

    #[test]
    fn sanity_ignores_snapshots_before_the_floor() {
        let bad = tamper(&sample_history());
        // The edited snapshot was invoked at t = 120.
        assert!(history_sanity(&bad, 2, 200).is_empty());
    }
}
