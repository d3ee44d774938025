//! EXP-F6: regenerates Figure 6 (scalability comparison, HDD model).

use hydra_bench::experiments::fig6_fig7_platform_comparison;
use hydra_bench::harness::Platform;

fn main() {
    let config = hydra_bench::RunConfig::from_args();
    fig6_fig7_platform_comparison(&config, Platform::Hdd)
        .emit("fig6_hdd")
        .expect("write csv");
}
