//! Fixed-seed integration tests for the serving layer: degraded-mode
//! behavior under the engineered chaos-under-load schedules, accounting
//! conservation and determinism. The JSON bytes are pinned by the
//! `expected/serve*.json` goldens instead.

use strandweaver::{BenchmarkId, HwDesign, LangModel};
use sw_serve::{serve_report, BreakerState, ServeConfig, ShedPolicy};

fn base_cfg() -> ServeConfig {
    ServeConfig::new(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
}

/// The headline degraded-mode scenario at a fixed seed: breakers trip
/// mid-serve, the spare-exhausted shard fails over, the survivors keep
/// serving, Salvage recovery reconverges, and nothing corrupts silently.
#[test]
fn degraded_mode_trips_fails_over_and_recovers() {
    let report = serve_report(&base_cfg()).expect("serve invariants hold");
    let cell = &report.cells[0];

    // The engineered schedules must actually fire.
    assert!(cell.breaker_trips >= 1, "no breaker tripped");
    assert!(
        cell.failovers >= 1,
        "spare exhaustion never failed a shard over"
    );
    assert!(
        cell.poisoned_reads >= 1,
        "the MCE-class poisoned read never fired"
    );
    assert!(cell.retries >= 1, "no persist retries observed");

    // Degraded mode: the failed-over shard turns reads into explicit
    // Unavailable and re-routes writes to survivors.
    assert!(
        cell.unavailable > 0,
        "degraded mode never surfaced Unavailable"
    );
    assert!(
        cell.failover_redirects >= 1,
        "no writes re-routed off the failed shard"
    );
    let failed: Vec<_> = cell.shards.iter().filter(|s| s.failed_over).collect();
    assert!(!failed.is_empty());
    for s in &failed {
        assert_eq!(
            s.state,
            BreakerState::Open,
            "failed-over shards report quarantined"
        );
    }
    // The other shards kept serving while a shard was quarantined.
    for s in cell.shards.iter().filter(|s| !s.failed_over) {
        assert!(s.served > 0, "surviving shard {} served nothing", s.shard);
    }
    assert!(cell.completed > 0, "degraded mode must still have goodput");

    // Every quarantine ran the real crash/recover leg and the
    // chaos-campaign bar held.
    assert!(cell.recovery_legs >= 1);
    assert!(
        cell.reconverged_salvage >= 1,
        "Salvage recovery never exercised"
    );
    assert!(cell.reconverged_strict >= 1);
    assert!(cell.durable_set_checks >= 1);
    assert!(cell.pmo_edges_checked >= 1);
    assert_eq!(cell.silent_corruptions, 0);

    // SLO accounting is sane: quantiles come off a populated histogram.
    assert!(cell.latency.count == cell.completed);
    assert!(cell.p50 <= cell.p99 && cell.p99 <= cell.p999);
    assert!(cell.p999 <= cell.max_latency.next_power_of_two());
}

/// Every offered request is accounted for exactly once, under every
/// shed policy.
/// The engine enforces the deadline factor the report echoes: a tighter
/// factor times out more requests.
#[test]
fn tighter_deadline_factor_times_out_more_requests() {
    let timeouts = |deadline_factor| {
        let cfg = ServeConfig {
            deadline_factor,
            ..base_cfg()
        };
        let report = serve_report(&cfg).expect("serve invariants hold");
        report.cells[0].timeouts
    };
    let (tight, loose) = (timeouts(1), timeouts(2));
    assert!(
        tight > loose,
        "factor 1: {tight} timeouts, factor 2: {loose}"
    );
}

#[test]
fn outcomes_partition_offered_requests() {
    for shed in ShedPolicy::ALL {
        let mut cfg = base_cfg();
        cfg.shed = shed;
        cfg.requests = 150;
        let report = serve_report(&cfg).expect("serve invariants hold");
        let c = &report.cells[0];
        assert_eq!(
            c.completed + c.shed + c.timeouts + c.unavailable + c.failed,
            c.offered,
            "accounting leak under {shed}",
        );
    }
}

/// The whole run is a pure function of the seed.
#[test]
fn serve_report_is_deterministic_per_seed() {
    let mut cfg = base_cfg();
    cfg.requests = 200;
    cfg.seed = 99;
    let a = serve_report(&cfg).expect("serve invariants hold");
    let b = serve_report(&cfg).expect("serve invariants hold");
    assert_eq!(a, b);
    cfg.seed = 100;
    let c = serve_report(&cfg).expect("serve invariants hold");
    assert_ne!(a, c, "different seeds should not collide bit-for-bit");
}

/// Fault-free baseline: no trips, no failovers, but the crash/recover
/// bar still runs once and holds.
#[test]
fn clean_baseline_has_no_quarantines() {
    let mut cfg = base_cfg();
    cfg.faults = false;
    cfg.requests = 200;
    let report = serve_report(&cfg).expect("serve invariants hold");
    let c = &report.cells[0];
    assert_eq!(c.breaker_trips, 0);
    assert_eq!(c.failovers, 0);
    assert_eq!(c.retries, 0);
    assert_eq!(c.failed, 0);
    assert_eq!(c.unavailable, 0);
    assert_eq!(c.recovery_legs, 1, "the bar runs even without quarantines");
    assert_eq!(c.silent_corruptions, 0);
    assert!(c.completed > 0);
}
