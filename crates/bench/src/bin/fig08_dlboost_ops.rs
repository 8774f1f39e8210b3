//! Regenerates **Figure 8**: operator performance on the simulated Intel
//! DL Boost CPU relative to Heron (paper averages: 2.93× AutoTVM, 12.0×
//! Ansor, 2.71× AMOS, 1.49× oneDNN).

use heron_bench::{print_operator_speedups, seed, trials};

fn main() {
    let spec = heron_dla::dlboost();
    let trials = trials();
    println!("Figure 8: DL Boost operator performance (trials={trials})");
    println!("op\tHeron(Gops)\tvsAutoTVM\tvsAnsor\tvsAMOS\tvsOneDNN");
    print_operator_speedups(&spec, trials, seed());
    println!();
    println!("(paper: AutoTVM 2.93x, Ansor 12.0x, AMOS 2.71x, oneDNN 1.49x)");
}
