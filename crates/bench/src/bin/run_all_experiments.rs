//! Runs every experiment in sequence (the full reproduction pass) and writes
//! all CSVs under `results/`. Control dataset sizes with `HYDRA_SCALE`
//! (`smoke`, `small`, `full`); the shared flags apply to every experiment.

use hydra_bench::experiments as exp;
use hydra_bench::harness::Platform;
use hydra_bench::report::results_dir;

fn main() {
    let config = hydra_bench::RunConfig::from_args();
    let dir = results_dir();
    println!(
        "running all experiments at scale {:?}; writing CSVs to {}\n",
        config.scale,
        dir.display()
    );

    exp::methods_table(&config).emit("table1_methods").unwrap();
    exp::fig2_leaf_size(&config).emit("fig2_leaf_size").unwrap();
    exp::fig3_scalability(&config)
        .emit("fig3_scalability")
        .unwrap();
    let (f4a, f4b) = exp::fig4_disk_accesses(&config);
    f4a.emit("fig4_disk_accesses_by_size").unwrap();
    f4b.emit("fig4_disk_accesses_by_length").unwrap();
    exp::fig5_lengths(&config).emit("fig5_lengths").unwrap();
    let f6 = exp::fig6_fig7_platform_comparison(&config, Platform::Hdd);
    f6.emit("fig6_hdd").unwrap();
    let f7 = exp::fig6_fig7_platform_comparison(&config, Platform::Ssd);
    f7.emit("fig7_ssd").unwrap();
    exp::fig8_footprint(&config).emit("fig8_footprint").unwrap();
    exp::fig8_tlb(&config).emit("fig8_tlb").unwrap();
    exp::fig9_pruning(&config).emit("fig9_pruning").unwrap();
    exp::table2_winners(&config)
        .0
        .emit("table2_winners")
        .unwrap();
    let f10 = exp::fig10_recommendations(&config);
    f10.emit("fig10_recommendations").unwrap();

    let (approx, approx_json) = exp::approx_tradeoff(&config);
    approx.emit("approx_tradeoff").unwrap();
    std::fs::write(dir.join("approx_tradeoff.json"), approx_json).unwrap();

    let (batch, batch_json) = exp::batch_amortization(&config);
    batch.emit("batch_amortization").unwrap();
    std::fs::write(dir.join("batch_amortization.json"), batch_json).unwrap();

    println!("all experiments complete; CSVs in {}", dir.display());
}
