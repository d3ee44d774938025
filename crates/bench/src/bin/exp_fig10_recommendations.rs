//! EXP-F10: regenerates Figure 10 (the recommendation matrix).

use hydra_bench::experiments::fig10_recommendations;

fn main() {
    let config = hydra_bench::RunConfig::from_args();
    fig10_recommendations(&config)
        .emit("fig10_recommendations")
        .expect("write csv");
}
