//! Every paper claim is a test. Each `eN_…`, `fN_…` and `a1_…` test runs
//! one function of `sss_bench::claims` and asserts the paper's shape on
//! the table it returns; `experiments_md_records_every_table` fails as
//! soon as EXPERIMENTS.md stops showing exactly what the code measures.

use sss_bench::{claims, Table, N_SWEEP};

const EXPERIMENTS_MD: &str = include_str!("../../../EXPERIMENTS.md");

/// "A small constant number of cycles" for the recovery theorems.
const RECOVERY_BOUND: f64 = 2.0;

/// A numeric cell; `NEVER` and `starved …` read as unbounded.
fn value(cell: &str) -> f64 {
    if cell == "NEVER" || cell.starts_with("starved") {
        return f64::INFINITY;
    }
    cell.parse()
        .unwrap_or_else(|_| panic!("not a number: {cell:?}"))
}

fn col(t: &Table, header: &str) -> Vec<f64> {
    t.column(header).into_iter().map(value).collect()
}

fn strictly_increasing(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

#[test]
fn experiments_md_records_every_table() {
    for claim in claims::ALL.map(|f| f()) {
        let heading = format!("\n{}\n", claim.heading());
        let start = EXPERIMENTS_MD
            .find(&heading)
            .unwrap_or_else(|| panic!("EXPERIMENTS.md has no heading {:?}", claim.heading()));
        let body = &EXPERIMENTS_MD[start + heading.len()..];
        let section = &body[..body.find("\n## ").unwrap_or(body.len())];
        for t in &claim.tables {
            let md = t.markdown();
            assert!(
                section.contains(&md),
                "EXPERIMENTS.md § {} does not show this table \
                 (`cargo run --release -p sss-bench --bin claims` prints them all):\n\n{md}",
                claim.id
            );
        }
    }
}

#[test]
fn e1_operations_cost_o_n_messages_and_gossip_o_n_squared() {
    let t = &claims::e1().tables[0];
    let n = col(t, "n");
    for h in [
        "write msgs (dgfr1)",
        "write msgs (alg1-ss)",
        "snap msgs (dgfr1)",
        "snap msgs (alg1-ss)",
    ] {
        for (msgs, n) in col(t, h).iter().zip(&n) {
            assert!(
                (1.0..=4.0).contains(&(msgs / n)),
                "{h} at n={n}: {msgs} is not within [n, 4n]"
            );
        }
    }
    // O(ν·n) bits per operation message, ν = 64.
    let bits = col(t, "write bits (alg1-ss)");
    let msgs = col(t, "write msgs (alg1-ss)");
    for ((b, m), n) in bits.iter().zip(&msgs).zip(&n) {
        let per_nu_n = b / m / (64.0 * n);
        assert!(
            (1.0..=4.0).contains(&per_nu_n),
            "n={n}: {per_nu_n} ν·n bits/msg"
        );
    }
    for (g, nn) in col(t, "gossip msgs/cycle").iter().zip(col(t, "n(n-1)")) {
        assert!(
            (1.0..=1.2).contains(&(g / nn)),
            "gossip {g}/cycle vs n(n-1) = {nn}"
        );
    }
    let gossip_bits = col(t, "gossip bits/msg");
    assert!(
        gossip_bits.iter().all(|&b| b == gossip_bits[0]),
        "gossip messages are O(ν) bits at every n: {gossip_bits:?}"
    );
}

#[test]
fn e2_dgfr2_is_quadratic_and_dgfr1_linear() {
    let t = &claims::e2().tables[0];
    for (h, ratio) in [("dgfr2 / n²", "n²"), ("dgfr1 / n", "n")] {
        for r in col(t, h) {
            assert!((1.0..=4.0).contains(&r), "{h} = {r}: not Θ({ratio})");
        }
    }
}

/// Snapshot-path messages of one uncontended snapshot at `p0` under the
/// round-paced Algorithm 3 this repository ran before its base calls
/// became demand-driven, for each `n` of [`N_SWEEP`] at `δ = 0`.
const ROUND_PACED_DELTA0: [u64; 4] = [28, 32, 168, 526];

/// Taking the timer out of Algorithm 3's snapshot path must not buy
/// latency with messages.
#[test]
fn e3_an_uncontended_snapshot_costs_no_more_messages_than_before() {
    let t = &claims::e3().tables[0];
    let delta0 = col(t, "alg3 δ=0 msgs");
    let delta16 = col(t, "alg3 δ=16 msgs");
    let dgfr2 = col(t, "dgfr2 msgs");
    for (k, (&n, &before)) in N_SWEEP.iter().zip(&ROUND_PACED_DELTA0).enumerate() {
        assert!(
            delta0[k] <= before as f64,
            "n={n}: δ=0 {} > {before}",
            delta0[k]
        );
        assert!(
            delta0[k] <= dgfr2[k],
            "n={n}: δ=0 {} > DGFR2 {}",
            delta0[k],
            dgfr2[k]
        );
        // δ > 0: only the initiator queries, O(n) messages.
        assert!(
            delta16[k] <= 6.0 * n as f64,
            "n={n}: δ=16 {} > 6n",
            delta16[k]
        );
    }
}

#[test]
fn e4_alg3_batches_concurrent_snapshots_below_dgfr2() {
    let t = &claims::e4().tables[0];
    for (alg3, dgfr2) in [
        ("alg3 δ=0 msgs/snap", "dgfr2 msgs/snap"),
        ("alg3 δ=0 makespan(us)", "dgfr2 makespan(us)"),
    ] {
        for (a, d) in col(t, alg3).iter().zip(col(t, dgfr2)) {
            assert!(*a < d, "{alg3} {a} is not below {dgfr2} {d}");
        }
    }
    // One shared batch: Algorithm 3's makespan stays nearly flat while n
    // quadruples (serving one task per base call makes it grow 4×).
    let makespan = col(t, "alg3 δ=0 makespan(us)");
    assert!(
        makespan[makespan.len() - 1] <= 2.0 * makespan[0],
        "makespan by n: {makespan:?}"
    );
}

#[test]
fn e5_alg1_recovers_in_o1_cycles_and_dgfr1_loses_a_write() {
    let t = &claims::e5().tables[0];
    for h in [
        "alg1-ss recovery (cycles, state only)",
        "alg1-ss recovery (cycles, +channels)",
        "incl. in-flight invariant",
    ] {
        for c in col(t, h) {
            assert!(c <= RECOVERY_BOUND, "{h}: {c} cycles");
        }
    }
    assert!(t
        .column("dgfr1 loses a write after restart")
        .iter()
        .all(|&c| c == "yes"));
}

#[test]
fn e6_alg3_recovers_in_o1_cycles_and_stays_usable() {
    let t = &claims::e6().tables[0];
    for h in [
        "δ=0 recovery (cycles)",
        "δ=4 recovery (cycles)",
        "δ=64 recovery (cycles)",
    ] {
        for c in col(t, h) {
            assert!(c <= RECOVERY_BOUND, "{h}: {c} cycles");
        }
    }
    assert!(t.column("usable after (δ=4)").iter().all(|&c| c == "yes"));
}

#[test]
fn e7_writes_admitted_and_snapshot_latency_grow_with_delta() {
    let c = claims::e7();
    let storm = &c.tables[0];
    let deltas = col(storm, "δ");
    let writes = col(storm, "concurrent writes observed");
    assert!(strictly_increasing(&writes), "writes admitted: {writes:?}");
    for (w, d) in writes.iter().zip(&deltas) {
        assert!(w >= d, "δ={d}: only {w} concurrent writes admitted");
    }
    let cycles = col(storm, "latency (cycles)");
    assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "{cycles:?}");
    assert!(cycles[0] < cycles[cycles.len() - 1], "{cycles:?}");
    for (c, d) in cycles.iter().zip(&deltas).skip(1) {
        assert!(c <= d, "δ={d}: {c} cycles is not O(δ)");
    }

    let mix = &c.tables[1];
    let snap_p99: Vec<f64> = mix
        .column("class")
        .iter()
        .zip(col(mix, "p99"))
        .filter(|(class, _)| **class == "snapshot")
        .map(|(_, p)| p)
        .collect();
    assert!(
        strictly_increasing(&snap_p99),
        "snapshot p99 by δ: {snap_p99:?}"
    );

    let hist = &c.tables[2];
    let top: Vec<f64> = ["δ=0", "δ=4", "δ=16"]
        .iter()
        .map(|h| col(hist, h).iter().rposition(|&c| c > 0.0).unwrap() as f64)
        .collect();
    assert!(
        top.windows(2).all(|w| w[0] <= w[1]) && top[0] < top[2],
        "{top:?}"
    );
}

#[test]
fn e8_delta_buys_write_availability_with_snapshot_latency() {
    let t = &claims::e8().tables[0];
    let deltas = col(t, "δ");
    for (w, d) in col(t, "writes / snapshot").iter().zip(&deltas) {
        assert!(w >= d, "δ={d}: only {w} writes per snapshot");
    }
    // Single steps of δ can dip; every quadrupling must pay off.
    for h in ["writes completed", "snap p50(us)"] {
        let v = col(t, h);
        for i in 0..v.len() {
            for j in 0..v.len() {
                if deltas[j] >= 4.0 * deltas[i].max(1.0) {
                    assert!(
                        v[j] > v[i],
                        "{h}: δ={} {} vs δ={} {}",
                        deltas[i],
                        v[i],
                        deltas[j],
                        v[j]
                    );
                }
            }
        }
    }
}

#[test]
fn e9_one_reset_per_maxint_preserves_values() {
    let t = &claims::e9().tables[0];
    assert!(col(t, "resets").iter().all(|&r| r == 1.0));
    assert!(t.column("epochs agree").iter().all(|&c| c == "true"));
    assert!(t.column("values preserved").iter().all(|&c| c == "true"));
    let attempted = col(t, "writes attempted");
    let completed = col(t, "writes completed");
    let aborted = col(t, "ops aborted");
    for k in 0..attempted.len() {
        assert_eq!(completed[k] + aborted[k], attempted[k], "row {k}");
    }
}

#[test]
fn e10_non_blocking_snapshots_slow_down_while_always_terminating_stay_bounded() {
    let t = &claims::e10().tables[0];
    const ALWAYS_TERMINATING_MAX: f64 = 2.0;
    for h in ["dgfr2", "alg3-ss δ=0", "alg3-ss δ=8"] {
        for c in col(t, h) {
            assert!(c <= ALWAYS_TERMINATING_MAX, "{h}: {c} cycles");
        }
    }
    for h in ["dgfr1", "alg1-ss"] {
        let c = col(t, h);
        assert!(strictly_increasing(&c), "{h}: {c:?}");
        let last = c[c.len() - 1];
        assert!(
            last >= 10.0 * ALWAYS_TERMINATING_MAX,
            "{h}: {last} cycles at the most writers"
        );
    }
}

#[test]
fn e11_stacking_costs_8n_and_4_round_trips_against_2n_and_1() {
    let t = &claims::e11().tables[0];
    for r in col(t, "stacked /8n") {
        assert!((1.0..=1.5).contains(&r), "stacked/8n = {r}");
    }
    for r in col(t, "integrated /2n") {
        assert!((1.0..=2.0).contains(&r), "integrated/2n = {r}");
    }
    for (s, i) in col(t, "stacked latency(us)")
        .iter()
        .zip(col(t, "integrated latency(us)"))
    {
        assert!((3.0..=5.0).contains(&(s / i)), "{s} µs vs {i} µs");
    }
}

#[test]
fn e12_operations_complete_iff_a_majority_is_alive() {
    let c = claims::e12();
    let t = &c.tables[0];
    let alive = t.column("majority alive");
    for h in ["alg1-ss completes", "alg3-ss completes"] {
        assert_eq!(t.column(h), alive, "{h}");
    }
    assert!(alive.contains(&"false"), "a row without a majority");
    let resume = &c.tables[1];
    assert_eq!(resume.column("alg1-ss write blocked"), ["true"]);
    assert_eq!(resume.column("completes after one resume"), ["true"]);
}

#[test]
fn e13_every_history_is_linearizable() {
    let t = &claims::e13().tables[0];
    assert!(t.column("verdict").iter().all(|&v| v == "linearizable"));
    let suffixes = t
        .column("faults")
        .iter()
        .zip(col(t, "ops"))
        .filter(|(f, ops)| **f == "corrupt all, suffix" && *ops > 0.0)
        .count();
    assert_eq!(suffixes, 2, "both self-stabilizing post-recovery suffixes");
}

#[test]
fn e15_every_corrupted_node_recovers_in_o1_cycles_on_the_trace() {
    let t = &claims::e15().tables[0];
    assert_eq!(
        t.column("node"),
        ["p1", "p2", "p0"],
        "one episode per corruption"
    );
    for c in col(t, "recovery (cycles)") {
        assert!(c <= RECOVERY_BOUND, "{c} cycles");
    }
}

#[test]
fn e16_no_strategy_finds_a_violation_and_corruptions_stabilize() {
    let t = &claims::e16().tables[0];
    assert_eq!(t.column("strategy").len(), 5, "every fault strategy");
    assert!(col(t, "cases").iter().all(|&c| c == 4.0));
    assert!(col(t, "completed").iter().all(|&c| c > 0.0));
    assert!(col(t, "findings").iter().all(|&f| f == 0.0));
    for (corrupt, stabilized) in col(t, "corrupt").iter().zip(col(t, "stabilized")) {
        assert_eq!(
            *corrupt > 0.0,
            stabilized > 0.0,
            "{corrupt} vs {stabilized}"
        );
    }
    assert!(col(t, "stabilized").iter().sum::<f64>() > 0.0);
}

/// Invariants `byzantine-storm` breaks on the claim's four seeds: on s1,
/// where two `InflateIndex` liars drive the epoch up, an honest snapshot
/// after the last reset is not linearizable over the honest sub-history
/// (DESIGN.md §10). The paper promises nothing against liars; ROADMAP's
/// "§5 with no exemptions" item sets out to close the gap, and must
/// change this to 0. Never raise it.
const BYZANTINE_STORM_KNOWN_BROKEN: f64 = 1.0;

#[test]
fn e19_the_reset_survives_partitions_and_liars_break_only_the_known_invariants() {
    let c = claims::e19();
    let (t, tally, broken) = (&c.tables[0], &c.tables[1], &c.tables[2]);
    let row = |strategy: &str| {
        let k = t
            .column("strategy")
            .iter()
            .position(|&s| s == strategy)
            .unwrap();
        move |h: &str| col(t, h)[k]
    };
    let exhaustion = row("counter-exhaustion");
    assert_eq!(
        exhaustion("resets"),
        exhaustion("cases"),
        "every seed resets"
    );
    assert!(exhaustion("resets under partition") >= 1.0);
    assert_eq!(exhaustion("inv broken"), 0.0);
    assert_eq!(exhaustion("violations"), 0.0);
    let storm = row("byzantine-storm");
    assert_eq!(storm("inv broken"), BYZANTINE_STORM_KNOWN_BROKEN);
    assert_eq!(
        storm("violations"),
        0.0,
        "liars are observed, never escalated"
    );

    let survival = |inv: &str, h: &str| {
        let k = tally
            .column("invariant")
            .iter()
            .position(|&i| i == inv)
            .unwrap();
        col(tally, h)[k]
    };
    assert_eq!(survival("epoch-monotonicity", "broken"), 0.0);
    // Every counter-exhaustion reset ran on a fault-only plan, so the
    // oracle checked its honest post-reset suffix, and none broke: every
    // broken suffix is a liar's.
    for (inv, strategy) in broken
        .column("invariant")
        .iter()
        .zip(broken.column("strategy"))
    {
        if *inv == "post-reset-linearizability" {
            assert_eq!(strategy, "byzantine-storm");
        }
    }
    assert!(survival("post-reset-linearizability", "held") >= exhaustion("cases"));
    assert_eq!(
        broken.column("invariant").len() as f64,
        col(t, "inv broken").iter().sum::<f64>(),
        "one row per broken invariant"
    );
}

fn phases(t: &Table) -> Vec<[usize; 3]> {
    let cols: Vec<Vec<f64>> = ["write₁", "snapshot", "write₂"]
        .iter()
        .map(|h| col(t, h))
        .collect();
    (0..cols[0].len())
        .map(|r| [0, 1, 2].map(|k| cols[k][r] as usize))
        .collect()
}

#[test]
fn f1_gossip_interleaves_without_touching_operation_traffic() {
    let c = claims::f1();
    assert_eq!(phases(&c.tables[0]), [[5, 5, 6], [6, 7, 6]]);
    let (upper, lower) = (c.tables[1].column("message"), c.tables[2].column("message"));
    assert!(!upper.contains(&"Gossip") && lower.contains(&"Gossip"));
    fn operation_kinds(mut kinds: Vec<&str>) -> Vec<&str> {
        kinds.retain(|&k| k != "Gossip");
        kinds.sort_unstable();
        kinds.dedup();
        kinds
    }
    assert_eq!(operation_kinds(upper), operation_kinds(lower));
}

#[test]
fn f2_algorithm_2_adds_reliable_broadcasts() {
    let c = claims::f2();
    assert_eq!(phases(&c.tables[0]), [[5, 9, 18]]);
    let flows = c.tables[1].column("message");
    assert!(flows.contains(&"Snap") && flows.contains(&"RbAck"));
}

#[test]
fn f3_algorithm_3_queries_alone_and_batches_concurrent_snapshots() {
    let c = claims::f3();
    assert_eq!(phases(&c.tables[0]), [[6, 8, 9]]);
    let upper = c.tables[1].column("message");
    assert!(upper.contains(&"Save") && !upper.contains(&"Snap"));
    assert_eq!(
        c.tables[2].column("deliveries"),
        ["10", "7", "3", "1", "21", "7"]
    );
}

#[test]
fn a1_gossip_is_the_recovery_mechanism() {
    let t = &claims::a1().tables[0];
    let recovery = col(t, "recovery after ts rewind (cycles)");
    let gossip = col(t, "gossip msgs/cycle");
    let ks = [1.0, 2.0, 4.0, 8.0];
    assert!(strictly_increasing(&recovery[..4]), "{recovery:?}");
    for (k, g) in ks.iter().zip(&gossip) {
        let vs_every_round = g * k / gossip[0];
        assert!(
            (1.0..=1.5).contains(&vs_every_round),
            "k={k}: {g} gossip/cycle"
        );
    }
    assert_eq!(t.column("gossip every k rounds")[4], "disabled");
    assert_eq!(recovery[4], f64::INFINITY);
    assert_eq!(gossip[4], 0.0);
}
