//! Overhead check for the `sw-perf` wiring: a timing run with the profiler
//! disabled (the default) must cost no more than the same run with the
//! profiler enabled — the disabled path is one `Option` discriminant check
//! per phase boundary, while the enabled path reads the monotonic clock at
//! each of the eight boundaries per cycle.
//!
//! Run with `cargo bench -p sw-bench --bench perf_overhead`. The assert
//! uses a generous tolerance so scheduler noise on loaded machines does not
//! produce false failures.

use criterion::{criterion_group, criterion_main, Criterion};
use strandweaver::experiment::Experiment;
use strandweaver::faults::{DeviceFault, DeviceFaultClass, DeviceFaultSchedule, FaultTrigger};
use strandweaver::{BenchmarkId, HwDesign, LangModel};

fn cell() -> Experiment {
    Experiment::new(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
        .threads(2)
        .total_regions(16)
}

/// An armed fault unit whose trigger can never fire: the worst-case
/// "fault layer present but quiet" configuration (the default
/// `device_faults: None` path short-circuits even earlier).
fn idle_schedule() -> DeviceFaultSchedule {
    let mut s = DeviceFaultSchedule::none();
    s.faults.push(DeviceFault {
        class: DeviceFaultClass::TransientWriteFail,
        trigger: FaultTrigger::NthWrite(u64::MAX),
        sticky: false,
    });
    s
}

fn bench_disabled_vs_profiled(c: &mut Criterion) {
    c.bench_function("run_timing_profiler_disabled", |b| {
        b.iter(|| cell().run_timing())
    });
    c.bench_function("run_timing_profiler_enabled", |b| {
        sw_perf::set_global_enabled(true);
        b.iter(|| cell().run_timing());
        sw_perf::set_global_enabled(false);
        let _ = sw_perf::global_take();
    });
    let disabled = c
        .median_of("run_timing_profiler_disabled")
        .expect("disabled variant ran");
    let enabled = c
        .median_of("run_timing_profiler_enabled")
        .expect("profiled variant ran");
    let ratio = disabled.as_secs_f64() / enabled.as_secs_f64();
    println!("disabled/profiled time ratio: {ratio:.3}");
    assert!(
        ratio < 1.25,
        "the disabled profiler path should add no measurable cost over an \
         unprofiled run (disabled {disabled:?} vs profiled {enabled:?}, ratio {ratio:.3})"
    );
}

/// The online device-fault layer must be free when not in use: a run with
/// no fault schedule (the default) may cost no more than the same run with
/// an armed-but-never-firing fault unit installed. The disabled path is
/// one `Option` discriminant check per PM write.
fn bench_fault_layer_disabled_cost(c: &mut Criterion) {
    c.bench_function("run_timing_no_fault_layer", |b| {
        b.iter(|| cell().run_timing())
    });
    c.bench_function("run_timing_idle_fault_layer", |b| {
        b.iter(|| {
            let mut e = cell();
            e.sim = e.sim.clone().with_device_faults(idle_schedule());
            e.run_timing()
        })
    });
    let none = c
        .median_of("run_timing_no_fault_layer")
        .expect("no-fault variant ran");
    let idle = c
        .median_of("run_timing_idle_fault_layer")
        .expect("idle-fault variant ran");
    let ratio = none.as_secs_f64() / idle.as_secs_f64();
    println!("no-fault/idle-fault time ratio: {ratio:.3}");
    assert!(
        ratio < 1.25,
        "the fault-free PM write path should cost no more than an idle armed \
         fault unit (none {none:?} vs idle {idle:?}, ratio {ratio:.3})"
    );
}

criterion_group!(
    benches,
    bench_disabled_vs_profiled,
    bench_fault_layer_disabled_cost
);
criterion_main!(benches);
