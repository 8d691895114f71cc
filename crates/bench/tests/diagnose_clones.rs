//! The batched-diagnosis zero-clone proof reads the process-wide
//! `Fragment` clone counter (rayon workers included), so it runs in a
//! test binary of its own: any test cloning fragments concurrently in
//! the same process would be counted against the batch path.

use vapro_bench::diagnose::measure;

#[test]
fn measure_agrees_and_proves_zero_batch_clones() {
    let p = measure(2, 120, 5, 4, 1);
    assert_eq!(p.bench, "diagnose");
    assert!(p.regions >= 8, "regions {}", p.regions);
    assert!(p.diagnosed >= 1, "no region produced a report");
    assert_eq!(p.batch_fragment_clones, 0, "batch path cloned Fragments");
    assert!(p.naive_fragment_clones > 0, "the frozen baseline must still clone");
    assert!(p.naive_regions_per_sec > 0.0);
    assert!(p.batch_seq_regions_per_sec > 0.0);
    assert!(p.batch_regions_per_sec > 0.0);
    assert!(p.batch_speedup > 0.0);
    match p.parallel_speedup {
        Some(s) => {
            assert!(p.threads > 1);
            assert!(s > 0.0);
        }
        None => assert_eq!(p.threads, 1),
    }
}
