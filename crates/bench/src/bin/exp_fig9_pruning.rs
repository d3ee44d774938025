//! EXP-F9: regenerates Figure 9 (pruning ratio per method and workload).

use hydra_bench::experiments::fig9_pruning;

fn main() {
    let config = hydra_bench::RunConfig::from_args();
    fig9_pruning(&config)
        .emit("fig9_pruning")
        .expect("write csv");
}
