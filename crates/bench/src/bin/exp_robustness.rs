//! EXP-ROBUST: the robustness study — a fault-rate × retry-policy × budget
//! ladder under seeded deterministic fault injection, over the three scans
//! plus the VA+file and ADS+. Reports per-cell success rate, mean attempts
//! per answered query (1 + the deepest in-place re-read of any of its
//! reads), truncation fraction and the error ratio of degraded
//! answers against the fault-free exact baseline, plus a snapshot-recovery
//! phase counting quarantine-and-rebuild recoveries of corrupted on-disk
//! snapshots.
//!
//! The fault-free lane is validated bit-identical to today's behaviour on
//! the way (answers and work counters), and any query failure must surface
//! as a typed error — the binary panics otherwise.
//!
//! Writes `BENCH_robust.json` and `results/robustness.{csv,json}` (the JSON
//! is uploaded as a CI artifact by the `chaos-smoke` job).
//!
//! This binary sweeps the fault ladder itself, so it takes no `--fault-seed`
//! or `--budget` flag (those drive the per-figure binaries); `--threads N`
//! and `HYDRA_SCALE` apply as usual.

use hydra_bench::experiments::robustness;

fn main() {
    let config = hydra_bench::RunConfig::from_args();
    let (table, json) = robustness(&config);
    let bench_path =
        hydra_bench::report::write_bench_artifact("robust", &json).expect("write json");
    println!("wrote {}", bench_path.display());
    let csv_path = table.emit("robustness").expect("write csv");
    let json_path = csv_path.with_extension("json");
    std::fs::write(&json_path, json).expect("write json");
    println!("wrote {}", json_path.display());
}
