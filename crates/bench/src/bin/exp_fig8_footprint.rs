//! EXP-F8: regenerates Figure 8 (index footprint and tightness of the lower
//! bound).

use hydra_bench::experiments::{fig8_footprint, fig8_tlb};

fn main() {
    let config = hydra_bench::RunConfig::from_args();
    fig8_footprint(&config).emit("fig8_footprint").expect("csv");
    fig8_tlb(&config).emit("fig8_tlb").expect("csv");
}
