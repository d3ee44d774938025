//! EXP-APPROX: the approximate-answering trade-off (the sequel study's
//! headline figure) — ε sweep plus ng and δ-ε points over every mode-capable
//! method, reporting mean error ratio and speedup vs exact. Exact results are
//! validated unchanged along the way (the ε = 0 run must answer
//! bit-identically, or the binary aborts).
//!
//! Writes `results/approx_tradeoff.csv` and `results/approx_tradeoff.json`
//! (the JSON is uploaded as a CI artifact by the `approx-smoke` job).
//!
//! This binary sweeps the whole mode ladder itself, so it takes no `--mode`
//! flag (unlike the per-figure binaries).

use hydra_bench::experiments::approx_tradeoff;

fn main() {
    let config = hydra_bench::RunConfig::from_args();
    let (table, json) = approx_tradeoff(&config);
    let csv_path = table.emit("approx_tradeoff").expect("write csv");
    let json_path = csv_path.with_extension("json");
    std::fs::write(&json_path, json).expect("write json");
    println!("wrote {}", json_path.display());
}
