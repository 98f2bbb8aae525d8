//! The `WRITEack` rule of the shared write half, checked on every
//! protocol that composes it: a stale (non-covering) ack does not count,
//! a duplicate ack counts once, and a covering majority completes the
//! write.

use sss_baselines::{Dgfr1, Dgfr2, Dgfr2Msg};
use sss_core::{Alg1, Alg1Msg, Alg3, Alg3Config, Alg3Msg};
use sss_types::{Effects, NodeId, OpId, OpResponse, Payload, Protocol, RegArray, SnapshotOp};

fn ack_rule<P: Protocol>(
    name: &str,
    mut p: P,
    reg: fn(&P) -> &RegArray,
    ack: fn(Payload) -> P::Msg,
) {
    let mut fx = Effects::new();
    p.invoke(OpId(1), SnapshotOp::Write(42), &mut fx);
    let lreg: Payload = reg(&p).clone().into();
    let stale: Payload = RegArray::bottom(3).into();
    p.on_message(NodeId(1), ack(stale.clone()), &mut fx);
    p.on_message(NodeId(2), ack(stale), &mut fx);
    assert!(
        fx.take_completions().is_empty(),
        "{name}: stale acks counted"
    );
    p.on_message(NodeId(1), ack(lreg.clone()), &mut fx);
    p.on_message(NodeId(1), ack(lreg.clone()), &mut fx);
    assert!(
        fx.take_completions().is_empty(),
        "{name}: a duplicate counted twice"
    );
    p.on_message(NodeId(2), ack(lreg), &mut fx);
    assert_eq!(
        fx.take_completions(),
        vec![(OpId(1), OpResponse::WriteDone)],
        "{name}: a covering majority must complete the write"
    );
}

#[test]
fn write_ack_rule_holds_on_every_protocol() {
    let me = NodeId(0);
    ack_rule("Alg1", Alg1::new(me, 3), Alg1::reg, |reg| {
        Alg1Msg::WriteAck { reg }
    });
    ack_rule("Dgfr1", Dgfr1::init(me, 3), Dgfr1::reg, |reg| {
        Alg1Msg::WriteAck { reg }
    });
    let alg3 = Alg3::new(me, 3, Alg3Config::default());
    ack_rule("Alg3", alg3, Alg3::reg, |reg| Alg3Msg::WriteAck { reg });
    ack_rule("Dgfr2", Dgfr2::new(me, 3), Dgfr2::reg, |reg| {
        Dgfr2Msg::WriteAck { reg }
    });
}
