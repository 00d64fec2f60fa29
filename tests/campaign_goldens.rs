//! The campaign goldens: the fixed-seed `swctl … --json` reports committed
//! under `expected/`, the crash campaign's verdict and two timing runs (one
//! redo-logged, one on eight cores), rebuilt through the library and
//! compared byte for byte.
//! `ci.sh` also diffs each against the release binary's output. The
//! largest, `serve_sweep.json` (57 serving cells), takes 3–5 s in a debug
//! build on a 2-vCPU host.
//!
//! Each golden names the `swctl` command that printed it (see `ci.sh`).

use strandweaver::experiment::{chaos_sweep, Experiment};
use strandweaver::trace::Json;
use strandweaver::{BenchmarkId, HwDesign, LangModel};
use sw_serve::ServeConfig;

/// The cell `swctl` builds from `--threads 2 --regions <regions> --ops 2
/// --seed <seed>`.
fn cell(
    bench: BenchmarkId,
    lang: LangModel,
    design: HwDesign,
    regions: usize,
    seed: u64,
) -> Experiment {
    Experiment::new(bench, lang, design)
        .threads(2)
        .total_regions(regions)
        .ops_per_region(2)
        .seed(seed)
}

/// Asserts that `stdout` is exactly `expected/<file>`.
fn golden_file(file: &str, stdout: String) {
    let path = format!("{}/expected/{file}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(stdout, want, "{file} drifted from {path}");
}

/// Asserts that `report` renders exactly as `expected/<name>.json` (which
/// holds `swctl`'s stdout: the rendered JSON plus a newline).
fn golden(name: &str, report: Json) {
    golden_file(&format!("{name}.json"), format!("{}\n", report.render()));
}

#[test]
fn crash_campaign_matches_its_golden() {
    // `crash queue --lang txn --design non-atomic --threads 2 --regions 40
    // --ops 2 --rounds 150 --seed 77`, which exits 1 with this verdict.
    let err = cell(
        BenchmarkId::Queue,
        LangModel::Txn,
        HwDesign::NonAtomic,
        40,
        77,
    )
    .run_crash_campaign(150)
    .expect_err("non-atomic hardware tears a region");
    golden_file(
        "crash_non_atomic.txt",
        format!("queue: INCONSISTENT — {err}\n"),
    );
}

#[test]
fn redo_timing_run_matches_its_golden() {
    // `run hashmap --lang sfr --design strandweaver --redo --threads 2
    // --regions 24 --ops 2 --json`: the only golden that pins redo
    // logging's cycles (its store encoding and lock-stamp fence).
    let stats = cell(
        BenchmarkId::Hashmap,
        LangModel::Sfr,
        HwDesign::StrandWeaver,
        24,
        1234,
    )
    .redo()
    .with_metrics()
    .run_timing();
    golden("run_redo", stats.to_json());
}

#[test]
fn eight_core_timing_run_matches_its_golden() {
    // `run queue --lang txn --design strandweaver --threads 8 --regions 24
    // --ops 2 --json`: eight cores queue on one lock, so its lock releases
    // wake waiters both above and below the releaser's index, and it pins
    // every core's stall counts.
    let stats = Experiment::new(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
        .threads(8)
        .total_regions(24)
        .ops_per_region(2)
        .seed(1234)
        .with_metrics()
        .run_timing();
    golden("run_8core", stats.to_json());
}

#[test]
fn fault_campaigns_match_their_goldens() {
    use BenchmarkId::{Hashmap, Queue};
    use HwDesign::{Eadr, IntelX86, StrandWeaver};
    use LangModel::{Native, Sfr, Txn};
    // faults / faults_heap: `faults queue --lang txn --design strandweaver
    // --regions 16 --rounds 9 --seed 42 [--heap]`.
    let faults = cell(Queue, Txn, StrandWeaver, 16, 42);
    golden("faults", faults.run_fault_campaign(9).unwrap().to_json());
    golden(
        "faults_heap",
        faults.run_heap_fault_campaign(9).unwrap().to_json(),
    );
    // faults_native: every round is a control round.
    let native = cell(Queue, Native, Eadr, 16, 5);
    golden(
        "faults_native",
        native.run_fault_campaign(6).unwrap().to_json(),
    );
    // faults_redo: `faults hashmap --lang sfr --design intel-x86 --rounds
    // 12 --seed 9 --redo`.
    let redo = cell(Hashmap, Sfr, IntelX86, 16, 9).redo();
    golden(
        "faults_redo",
        redo.run_fault_campaign(12).unwrap().to_json(),
    );
    // heap_verify: `heap hashmap --verify --lang native --design eadr
    // --regions 40 --rounds 40 --seed 7`.
    let heap = cell(Hashmap, Native, Eadr, 40, 7);
    golden("heap_verify", heap.run_heap_smoke(40).unwrap().to_json());
}

#[test]
fn chaos_campaigns_match_their_goldens() {
    // `chaos queue --lang txn --design strandweaver --regions 24 --seed 1`
    // with `--rounds 3`, and with `--sweep --rounds 2`.
    let chaos = cell(
        BenchmarkId::Queue,
        LangModel::Txn,
        HwDesign::StrandWeaver,
        24,
        1,
    );
    golden("chaos", chaos.run_chaos_campaign(3).unwrap().to_json());
    golden("chaos_sweep", chaos_sweep(&chaos, 2).unwrap().to_json());
}

/// The serving config `swctl serve <bench> --threads 2 --regions 24 --ops 2
/// --seed 1234` builds (txn on strandweaver, the defaults).
fn serve_cell(bench: BenchmarkId) -> ServeConfig {
    let mut cfg = ServeConfig::new(bench, LangModel::Txn, HwDesign::StrandWeaver).seed(1234);
    cfg.threads = 2;
    cfg.regions = 24;
    cfg.ops = 2;
    cfg
}

#[test]
fn serve_cell_matches_its_golden() {
    // `serve queue --lang txn --design strandweaver --threads 2 --regions
    // 24 --ops 2 --seed 1234`.
    let cfg = serve_cell(BenchmarkId::Queue);
    golden("serve", sw_serve::serve_report(&cfg).unwrap().to_json());
}

#[test]
fn serve_sweep_matches_its_golden() {
    // `serve nstore-bal --sweep --threads 2 --regions 24 --ops 2 --seed
    // 1234`.
    let cfg = serve_cell(BenchmarkId::NStoreBal);
    golden(
        "serve_sweep",
        sw_serve::serve_sweep(&cfg).unwrap().to_json(),
    );
}
