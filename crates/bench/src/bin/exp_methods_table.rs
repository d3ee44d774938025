//! EXP-T1: regenerates Table 1 (the method property matrix).

use hydra_bench::experiments::methods_table;

fn main() {
    let config = hydra_bench::RunConfig::from_args();
    methods_table(&config)
        .emit("table1_methods")
        .expect("write csv");
}
