//! Integration tests of kernel-library generation: batch tuning with
//! persistence across every platform — the deliverable named in the
//! paper's title.

use heron::core::library::KernelLibrary;
use heron::prelude::*;
use heron::tensor::ops;

#[test]
fn library_generation_across_platforms() {
    let dir = std::env::temp_dir().join("heron_it_library");
    let _ = std::fs::create_dir_all(&dir);
    for spec in [heron::dla::v100(), heron::dla::dlboost(), heron::dla::vta()] {
        let dag = ops::gemm_dtyped(512, 512, 512, spec.in_dtype);
        let mut lib = KernelLibrary::new();
        let entry = lib
            .tune_and_insert("gemm-512", &dag, &spec, TuneConfig::quick(32), 11)
            .unwrap_or_else(|| panic!("{}: tuning failed", spec.name))
            .clone();
        assert!(entry.gflops > 0.0);
        assert_eq!(entry.dla, spec.name);

        // Persist, reload, materialise, re-measure at the stored speed.
        let path = dir.join(format!("{}.lib", spec.name));
        lib.save(&path).expect("writable");
        let loaded = KernelLibrary::load(&path).expect("parses");
        assert_eq!(loaded, lib);
        let kernel = loaded
            .materialize("gemm-512", &dag, &spec)
            .expect("stored config re-materialises");
        let m = Measurer::new(spec.clone())
            .measure(&kernel)
            .expect("still valid");
        let rel = (m.gflops - entry.gflops).abs() / entry.gflops;
        assert!(rel < 0.05, "{}: drift {rel}", spec.name);
    }
}

#[test]
fn library_covers_a_whole_operator_suite() {
    let spec = heron::dla::v100();
    let mut lib = KernelLibrary::new();
    for w in operator_suite("GEMM") {
        let dag = w.build(DType::F16);
        lib.tune_and_insert(&w.name, &dag, &spec, TuneConfig::quick(24), 13);
    }
    assert_eq!(lib.len(), operator_suite("GEMM").len());
    // Text round trip preserves every entry.
    let text = lib.to_text().expect("workload keys are writable");
    let back = KernelLibrary::from_text(&text).expect("parses");
    assert_eq!(back, lib);
    for (key, entry) in back.iter() {
        assert!(entry.gflops > 0.0, "{key} has no performance");
        assert!(!entry.tunables.is_empty());
    }
}

#[test]
fn stale_library_entries_fail_gracefully_on_other_shapes() {
    // Materialising an entry against a different shape must not panic —
    // it returns None when the stored tunables don't fit.
    let spec = heron::dla::v100();
    let dag_big = ops::gemm(1024, 1024, 1024);
    let dag_small = ops::gemm(64, 64, 64);
    let mut lib = KernelLibrary::new();
    lib.tune_and_insert("g", &dag_big, &spec, TuneConfig::quick(24), 17)
        .expect("tunes");
    // Large tile factors stored for 1024^3 cannot satisfy 64^3's divisor
    // domains — expect a clean None (or a rare coincidental fit).
    let result = lib.materialize("g", &dag_small, &spec);
    if let Some(kernel) = result {
        // If it happens to fit, it must still be a valid kernel.
        Measurer::new(spec)
            .validate(&kernel)
            .expect("fit implies valid");
    }
}
