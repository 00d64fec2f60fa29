//! Sweeps over cells: the design sweep and the chaos sweep, and
//! [`fan_out`]'s process-wide pool that every parallel sweep runs on.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};

use sw_lang::{HwDesign, LangModel};
use sw_pmem::OnlineFaultStats;
use sw_sim::SimStats;
use sw_workloads::BenchmarkId;

use super::{ChaosSweepReport, Experiment};

/// Runs one benchmark × language model on each of `designs` (all of
/// [`HwDesign::ALL`] for a full sweep, or the `swctl --design` filter)
/// with identical logical work, returning `(design, stats)` pairs in the
/// order of `designs`. The Figure 7 generator calls this per cell.
/// Designs run on [`fan_out`]'s pool, untraced — each cell drives its own
/// workload copy and owns its machine, so the only shared state is the
/// read-only scale template.
pub fn design_sweep_of(
    designs: &[HwDesign],
    bench: BenchmarkId,
    lang: LangModel,
    scale: &Experiment,
) -> Vec<(HwDesign, SimStats)> {
    fan_out(designs, |&design| {
        let e = Experiment {
            bench,
            lang,
            design,
            trace: None,
            ..scale.clone()
        };
        (design, e.run_timing())
    })
}

/// Runs the chaos campaign on every legal (design × language model) pair
/// at `scale`'s benchmark and sizes, then enforces the sweep-wide
/// acceptance bar: zero silent corruptions (any would have errored a
/// cell), at least one successful transient retry, and at least one
/// permanent-error remap somewhere in the sweep — proof the fault classes
/// actually fired and healed rather than being silently skipped.
///
/// The cells run one after another, unlike `sw-serve`'s serve sweep: a
/// chaos cell holds a whole campaign's driven run, PMO and images, and
/// running them on [`fan_out`]'s pool raised the peak RSS of `swctl chaos
/// queue --sweep` at 8×240×4 from 17.4 to 31.2 MB, far past the 25%
/// growth the repository benchmark allows, to halve a 0.3 s sweep.
///
/// # Errors
///
/// The first failing cell's error (reproducer embedded), or a sweep-level
/// message when a fault class never fired.
pub fn chaos_sweep(scale: &Experiment, rounds: usize) -> Result<ChaosSweepReport, String> {
    let mut cells = Vec::new();
    let mut online = OnlineFaultStats::default();
    for design in HwDesign::ALL {
        for lang in LangModel::ALL {
            if !lang.legal_on(design) {
                continue;
            }
            let mut cell = scale.clone();
            cell.design = design;
            cell.lang = lang;
            cell.trace = None;
            let report = cell
                .run_chaos_campaign(rounds)
                .map_err(|e| format!("{design} x {lang}: {e}"))?;
            online.merge(&report.online);
            cells.push(report);
        }
    }
    if online.retries_succeeded == 0 {
        return Err("chaos sweep: no transient write fault ever retried successfully".into());
    }
    if online.lines_remapped == 0 {
        return Err("chaos sweep: no permanent media error was ever remapped".into());
    }
    Ok(ChaosSweepReport { cells, online })
}

/// Maps `f` over `items` and returns the results in input order. The
/// design sweep, `sw-bench`'s figure sweep and `sw-serve`'s serve sweep
/// all fan out through this.
///
/// Items run on `min(items.len(), available_parallelism)` workers (the
/// calling thread is one of them) that claim the next index from a shared
/// counter. Every running item holds one of `available_parallelism`
/// process-wide slots, so however many threads call `fan_out` at once, at
/// most that many items run, and only their working sets are resident.
/// A `fan_out` called from inside an item runs its items inline on that
/// thread, which already holds a slot: a nested sweep adds no thread and
/// never waits for a slot. Hence the invariant that keeps the pool free of
/// deadlock: an item must never block on a thread that is not an item
/// (one it spawned and joins, say), because that thread may be waiting for
/// the very slot the item holds. A panicking item releases its slot, and
/// the panic reaches the caller once the other workers finish.
pub fn fan_out<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if IN_ITEM.get() {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            let _slot = Slot::acquire();
            done.push((i, f(item)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..items.len().min(pool_width()))
            .map(|_| s.spawn(work))
            .collect();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().expect("sweep thread panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Process-wide slots of [`fan_out`]'s pool: one per hardware thread.
fn pool_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Items running in some [`fan_out`] right now, process-wide. Every
/// update is a single step on a plain count, so a poisoned lock still
/// holds a valid count and is used as is.
static RUNNING: Mutex<usize> = Mutex::new(0);
/// Signalled whenever a [`Slot`] is released.
static SLOT_FREED: Condvar = Condvar::new();

thread_local! {
    /// Whether this thread is running a [`fan_out`] item, i.e. holds a
    /// [`Slot`].
    static IN_ITEM: Cell<bool> = const { Cell::new(false) };
}

/// One of the [`pool_width`] slots, held while an item runs. Dropping it,
/// also while a panic unwinds, frees the slot.
struct Slot;

impl Slot {
    fn acquire() -> Self {
        let mut running = RUNNING.lock().unwrap_or_else(PoisonError::into_inner);
        while *running >= pool_width() {
            running = SLOT_FREED
                .wait(running)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *running += 1;
        IN_ITEM.set(true);
        Slot
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        IN_ITEM.set(false);
        *RUNNING.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
        SLOT_FREED.notify_one();
    }
}

/// `true` when the host offers more than one hardware thread, i.e. when
/// fanning sweep cells out across OS threads can actually overlap work
/// (see [`fan_out`]).
pub fn host_is_multicore() -> bool {
    pool_width() > 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::small;

    #[test]
    fn design_sweep_covers_all_designs() {
        let scale = small(
            BenchmarkId::ArraySwap,
            LangModel::Sfr,
            HwDesign::StrandWeaver,
        );
        let results = design_sweep_of(
            &HwDesign::ALL,
            BenchmarkId::ArraySwap,
            LangModel::Sfr,
            &scale,
        );
        assert_eq!(results.len(), HwDesign::ALL.len());
        assert!(results.iter().all(|(_, s)| s.cycles > 0));
        // Parallel execution must preserve the presentation order.
        let order: Vec<HwDesign> = results.iter().map(|(d, _)| *d).collect();
        assert_eq!(order, HwDesign::ALL.to_vec());
    }

    #[test]
    fn filtered_sweep_runs_only_requested_designs() {
        let scale = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver);
        let designs = [HwDesign::IntelX86, HwDesign::Eadr];
        let results = design_sweep_of(&designs, BenchmarkId::Queue, LangModel::Txn, &scale);
        let order: Vec<HwDesign> = results.iter().map(|(d, _)| *d).collect();
        assert_eq!(order, designs.to_vec());
    }

    /// Runs `f` on a thread of its own and returns its result; fails if
    /// `f` panics, or if it has not returned within two minutes, which
    /// on these tests' few milliseconds of work means the pool deadlocked.
    fn before_deadline<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        use std::sync::mpsc::RecvTimeoutError;
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || tx.send(f()).ok());
        match rx.recv_timeout(std::time::Duration::from_secs(120)) {
            Ok(r) => r,
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().expect_err("no result and no panic"))
            }
            Err(RecvTimeoutError::Timeout) => panic!("fan_out deadlocked"),
        }
    }

    /// The figures benchmark's shape: 24 raw threads fan out six items
    /// each, and every item fans out again. However many callers there
    /// are, at most one item per slot runs at a time; each caller gets
    /// its results in input order; and a nested sweep runs inline on its
    /// item's thread.
    #[test]
    fn fan_out_bounds_running_items_process_wide() {
        use std::sync::atomic::Ordering::SeqCst;
        let peak = before_deadline(|| {
            let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let item = |&i: &usize| {
                peak.fetch_max(running.fetch_add(1, SeqCst) + 1, SeqCst);
                let me = std::thread::current().id();
                let nested = fan_out(&[0, 1, 2], |&k| (k, std::thread::current().id()));
                assert_eq!(
                    nested,
                    [(0, me), (1, me), (2, me)],
                    "nested items ran elsewhere"
                );
                // Widens the window in which items overlap; the bound
                // checked below holds whatever the interleaving.
                std::thread::sleep(std::time::Duration::from_millis(1));
                running.fetch_sub(1, SeqCst);
                i
            };
            std::thread::scope(|s| {
                for cell in 0..24 {
                    let item = &item;
                    s.spawn(move || {
                        let items: Vec<usize> = (cell * 6..cell * 6 + 6).collect();
                        assert_eq!(fan_out(&items, item), items);
                    });
                }
            });
            peak.into_inner()
        });
        assert!(
            (1..=pool_width()).contains(&peak),
            "{peak} items ran at once on {} slots",
            pool_width()
        );
    }

    /// An item that panics frees its slot while unwinding, so a sweep
    /// whose items all panic leaves the pool usable.
    #[test]
    fn a_panicking_item_releases_its_slot() {
        let doubled = before_deadline(|| {
            let items: Vec<usize> = (0..pool_width()).collect();
            for _ in 0..2 {
                let failed = std::panic::catch_unwind(|| {
                    fan_out(&items, |_| -> usize { panic!("item failed on purpose") })
                });
                assert!(failed.is_err());
            }
            fan_out(&[1, 2, 3], |&x| x * 2)
        });
        assert_eq!(doubled, [2, 4, 6]);
    }

    #[test]
    fn chaos_sweep_covers_every_legal_cell() {
        let scale = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver);
        let report = chaos_sweep(&scale, 1).expect("sweep");
        let legal = HwDesign::ALL
            .iter()
            .flat_map(|&d| LangModel::ALL.iter().filter(move |l| l.legal_on(d)))
            .count();
        assert_eq!(report.cells.len(), legal);
        assert!(report.online.retries_succeeded >= 1);
        assert!(report.online.lines_remapped >= 1);
        let text = report.render();
        assert!(text.contains("0 silent corruptions"), "{text}");
        let json = report.to_json().render();
        assert!(json.contains("\"cells\""), "{json}");
    }
}
