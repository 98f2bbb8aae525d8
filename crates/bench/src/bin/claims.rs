//! Prints the table of every paper claim (E1–E13, E15, E16, E19, F1–F3,
//! A1) as markdown: the tables EXPERIMENTS.md records, measured afresh
//! on the deterministic simulator.
//!
//! ```sh
//! cargo run --release -p sss-bench --bin claims
//! ```

fn main() {
    for claim in sss_bench::claims::ALL {
        println!("{}", claim().markdown());
    }
}
