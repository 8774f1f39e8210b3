//! Regenerates **Figure 6**: operator performance on the (simulated)
//! NVIDIA V100 TensorCore relative to Heron. For each of the nine
//! operators the harness tunes every shape in the suite with each
//! approach and reports the geometric-mean speedup of Heron over the
//! baseline (paper averages: 1.55× AutoTVM, 2.85× Ansor, 1.52× AMOS,
//! 2.69× PyTorch/cuDNN).

use heron_bench::{print_operator_speedups, seed, trials};

fn main() {
    let spec = heron_dla::v100();
    let trials = trials();
    println!("Figure 6: V100 TensorCore operator performance (trials={trials})");
    println!("op\tHeron(Gops)\tvsAutoTVM\tvsAnsor\tvsAMOS\tvsVendor");
    print_operator_speedups(&spec, trials, seed());
    println!();
    println!("(paper: AutoTVM 1.55x, Ansor 2.85x, AMOS 1.52x, PyTorch/cuDNN 2.69x)");
}
