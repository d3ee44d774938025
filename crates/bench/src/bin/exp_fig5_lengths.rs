//! EXP-F5: regenerates Figure 5 (scalability with increasing series lengths).

use hydra_bench::experiments::fig5_lengths;

fn main() {
    let config = hydra_bench::RunConfig::from_args();
    fig5_lengths(&config)
        .emit("fig5_lengths")
        .expect("write csv");
}
