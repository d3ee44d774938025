//! EXP-F4: regenerates Figure 4 (sequential and random disk accesses vs
//! dataset size and series length).

use hydra_bench::experiments::fig4_disk_accesses;

fn main() {
    let config = hydra_bench::RunConfig::from_args();
    let (by_size, by_length) = fig4_disk_accesses(&config);
    by_size.emit("fig4_disk_accesses_by_size").expect("csv");
    by_length.emit("fig4_disk_accesses_by_length").expect("csv");
}
