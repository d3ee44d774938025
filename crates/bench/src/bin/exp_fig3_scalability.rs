//! EXP-F3: regenerates Figure 3 (per-method scalability with dataset size,
//! CPU vs I/O breakdown).

use hydra_bench::experiments::fig3_scalability;

fn main() {
    let config = hydra_bench::RunConfig::from_args();
    fig3_scalability(&config)
        .emit("fig3_scalability")
        .expect("write csv");
}
