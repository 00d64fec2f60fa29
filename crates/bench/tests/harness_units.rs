//! Unit tests for the benchmark harness helpers.

use sw_bench::{Scale, PAPER_CKC};

#[test]
fn default_scale_is_sane() {
    let s = Scale::from_env().expect("the test environment sets no malformed scale");
    assert!(s.threads >= 1);
    assert!(s.regions >= 1);
    assert!(s.ops_per_region >= 1);
}

#[test]
fn paper_ckc_is_table_ii() {
    assert_eq!(PAPER_CKC.len(), 8);
    // Queue is the least write-intensive, N-Store wr-heavy the most.
    assert_eq!(PAPER_CKC[0], 0.78);
    assert_eq!(PAPER_CKC[7], 10.05);
    let max = PAPER_CKC.iter().cloned().fold(f64::MIN, f64::max);
    assert_eq!(max, 10.05);
}

#[test]
fn table1_text_mentions_all_structures() {
    let t = sw_bench::table1();
    for needle in [
        "store queue",
        "persist queue",
        "Strand unit",
        "ADR write queue",
    ] {
        assert!(t.contains(needle), "missing {needle} in Table I text");
    }
}

#[test]
fn fig2_report_passes_all_litmus() {
    let r = sw_bench::fig2_report();
    assert!(!r.contains("FAIL"), "{r}");
    assert!(r.matches("PASS").count() >= 13);
}

#[test]
fn fig1_report_shows_the_concurrency_difference() {
    let r = sw_bench::fig1_report();
    assert!(r.contains("strand persistency: C-before-A state reachable: true"));
    assert!(r.contains("epoch persistency:  C-before-A state reachable: false"));
}
