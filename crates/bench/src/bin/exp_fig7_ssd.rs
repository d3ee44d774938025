//! EXP-F7: regenerates Figure 7 (scalability comparison, SSD model).

use hydra_bench::experiments::fig6_fig7_platform_comparison;
use hydra_bench::harness::Platform;

fn main() {
    let config = hydra_bench::RunConfig::from_args();
    fig6_fig7_platform_comparison(&config, Platform::Ssd)
        .emit("fig7_ssd")
        .expect("write csv");
}
