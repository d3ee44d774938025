//! EXP-T2: regenerates Table 2 (the best method per platform, dataset and
//! scenario).

use hydra_bench::experiments::table2_winners;

fn main() {
    let config = hydra_bench::RunConfig::from_args();
    table2_winners(&config)
        .0
        .emit("table2_winners")
        .expect("write csv");
}
