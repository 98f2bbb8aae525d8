//! Folds the program's trace events into the counts the `obs.*`
//! per-layer metrics are made of.

use sss_obs::{DropCause, TraceEvent, TraceRecord};
use sss_types::MsgKind;

/// Counts over a stretch of the program's trace stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceFold {
    /// Trace events of any kind.
    pub events: u64,
    /// Sends of a client-side broadcast (`WRITE`, `SNAPSHOT`, `SAVE`).
    pub send_request: u64,
    /// Sends of a server-side reply (the three `…ack` kinds).
    pub send_ack: u64,
    /// Sends of background gossip.
    pub send_gossip: u64,
    /// Inbox drains applied as one protocol step.
    pub drains: u64,
    /// Messages those drains applied.
    pub drained: u64,
    /// Messages the link model dropped (cut link, loss coin, capacity) —
    /// drops at a crashed receiver are not the network's.
    pub dropped_by_link: u64,
}

impl TraceFold {
    /// Adds `records` to the counts.
    pub fn absorb(&mut self, records: &[TraceRecord]) {
        for rec in records {
            self.events += 1;
            match rec.event {
                TraceEvent::Send { kind, .. } => match kind {
                    MsgKind::Gossip => self.send_gossip += 1,
                    MsgKind::WriteAck | MsgKind::SnapshotAck | MsgKind::SaveAck => {
                        self.send_ack += 1
                    }
                    _ => self.send_request += 1,
                },
                TraceEvent::BatchDrain { drained, .. } => {
                    self.drains += 1;
                    self.drained += u64::from(drained);
                }
                TraceEvent::Drop { cause, .. } if cause != DropCause::Crashed => {
                    self.dropped_by_link += 1
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_types::NodeId;

    #[test]
    fn sends_are_split_by_role_and_drains_summed() {
        let send = |kind| TraceEvent::Send {
            from: NodeId(0),
            to: NodeId(1),
            kind,
            bits: 64,
        };
        let events = [
            send(MsgKind::Write),
            send(MsgKind::Snapshot),
            send(MsgKind::WriteAck),
            send(MsgKind::Gossip),
            send(MsgKind::Gossip),
            TraceEvent::BatchDrain {
                node: NodeId(1),
                drained: 7,
                coalesced: 2,
            },
            TraceEvent::Drop {
                from: NodeId(0),
                to: NodeId(1),
                kind: MsgKind::Gossip,
                cause: DropCause::Crashed,
            },
            TraceEvent::Drop {
                from: NodeId(0),
                to: NodeId(1),
                kind: MsgKind::Gossip,
                cause: DropCause::LinkDown,
            },
        ];
        let records: Vec<TraceRecord> = events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceRecord {
                seq: i as u64,
                at: i as u64,
                event,
            })
            .collect();
        let mut fold = TraceFold::default();
        fold.absorb(&records);
        fold.absorb(&[]);
        assert_eq!(
            fold,
            TraceFold {
                events: 8,
                send_request: 2,
                send_ack: 1,
                send_gossip: 2,
                drains: 1,
                drained: 7,
                dropped_by_link: 1,
            }
        );
    }
}
