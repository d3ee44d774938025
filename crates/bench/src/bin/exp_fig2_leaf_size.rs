//! EXP-F2: regenerates Figure 2 (leaf-size parametrization).

use hydra_bench::experiments::fig2_leaf_size;

fn main() {
    let config = hydra_bench::RunConfig::from_args();
    fig2_leaf_size(&config)
        .emit("fig2_leaf_size")
        .expect("write csv");
}
