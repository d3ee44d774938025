//! BENCH-BATCH: the batched-execution baseline.
//!
//! Runs the batch-size ladder (per-query loop, then batches of 1/8/64/256)
//! over every method with a native batch kernel — the three scans, the
//! VA+file and ADS+ — reporting throughput and the *physical* store pages
//! per query. The scans' sequential pages per query shrink ~1/B with batch
//! size B (one amortized pass per batch chunk), while answers and per-query
//! logical counters are validated bit-identical to the per-query loop on the
//! way. Results go to stdout and to `BENCH_batch.json` so later PRs have a
//! throughput trajectory to compare against.
//!
//! Takes the shared flags: `--threads N` (batches run thread-parallel across
//! chunks), `--index-dir DIR`, and `HYDRA_SCALE` for the dataset size.

use hydra_bench::experiments as exp;

fn main() {
    let config = hydra_bench::RunConfig::from_args();
    let (table, json) = exp::batch_amortization(&config);
    println!("{}", table.to_text());
    let path = hydra_bench::report::write_bench_artifact("batch", &json).expect("write json");
    println!("wrote {}", path.display());
}
