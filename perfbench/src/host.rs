//! Host-side accounting from `/proc`: CPU time, the peak-RSS high-water
//! mark, and per-thread minor page faults. Standard library only.

use std::fs::File;
use std::os::unix::fs::FileExt;

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`, 100
/// on every Linux architecture this runs on).
const TICKS_PER_S: f64 = 100.0;

/// Fields of a `/proc/*/stat` line after the parenthesised command name,
/// which may itself contain spaces. Index 0 is field 3 (`state`).
fn stat_fields(line: &str) -> Vec<&str> {
    let rest = line.rsplit_once(')').map_or("", |(_, r)| r);
    rest.split_whitespace().collect()
}

/// Field `n` (1-based, as in proc(5)) of a `/proc/*/stat` line.
fn stat_field(line: &str, n: usize) -> u64 {
    stat_fields(line)
        .get(n - 3)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// User plus system CPU seconds of the whole process, threads that have
/// already exited included.
pub fn cpu_seconds() -> f64 {
    let line = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    (stat_field(&line, 14) + stat_field(&line, 15)) as f64 / TICKS_PER_S
}

/// Resets the process's peak-RSS high-water mark to its current RSS, so
/// the next [`peak_rss_mb`] covers only what ran since. Returns `false`
/// when the kernel refused the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Calibration-kernel time of the nominal host (2 vCPUs of an Intel Xeon
/// at 2.0 GHz, uncontended), in seconds. Only a scale: host times are
/// reported in seconds of that host.
pub const NOMINAL_CALIBRATION_S: f64 = 0.1;

/// Loop trips of the calibration kernel on each thread.
const CALIBRATION_TRIPS: u64 = 32_000_000;

/// Words in each calibration table (1 MiB).
const CALIBRATION_WORDS: u64 = 1 << 17;

/// Times a fixed kernel owned by the benchmark — loads, stores and
/// data-dependent branches over a 1 MiB table, the shape of the
/// simulator's inner loops — so its time follows the host's speed (a
/// shared machine's SMT siblings and caches), never the code under test.
///
/// The tables are allocated once and kept: freeing them would move the
/// allocator's mmap threshold and so change the program's own paging.
pub struct Calibrator {
    tables: Vec<Vec<u64>>,
}

impl Calibrator {
    /// A kernel per thread the workload keeps busy, so the calibration
    /// shares the cores the passes run on.
    pub fn new(threads: usize) -> Self {
        Calibrator {
            tables: (0..threads.max(1))
                .map(|_| vec![0; CALIBRATION_WORDS as usize])
                .collect(),
        }
    }

    /// Runs the kernel on every hardware thread at once; the threads' mean
    /// wall seconds, each timed from its own start.
    pub fn run(&mut self) -> f64 {
        let times: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .tables
                .iter_mut()
                .enumerate()
                .map(|(seed, table)| {
                    s.spawn(move || {
                        let t = std::time::Instant::now();
                        std::hint::black_box(kernel(table, seed as u64));
                        t.elapsed().as_secs_f64()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration thread panicked"))
                .collect()
        });
        times.iter().sum::<f64>() / times.len() as f64
    }
}

fn kernel(table: &mut [u64], seed: u64) -> u64 {
    const WORDS: u64 = CALIBRATION_WORDS;
    for (i, w) in table.iter_mut().enumerate() {
        *w = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
    }
    let (mut x, mut acc) = (seed | 1, 0u64);
    for _ in 0..CALIBRATION_TRIPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = ((x >> 40) & (WORDS - 1)) as usize;
        let v = table[i];
        if v & 1 == 0 {
            acc = acc.wrapping_add(v);
        } else {
            acc ^= v.rotate_left(7);
        }
        table[i] = v ^ acc;
    }
    acc
}

/// Minor page faults of the calling thread, read through a handle opened
/// on that thread (re-read in place, so a span costs two `pread`s).
pub struct ThreadFaults {
    file: Option<File>,
    buf: Vec<u8>,
}

impl ThreadFaults {
    /// Opens the calling thread's stat file. Must be used on that thread.
    pub fn open() -> Self {
        ThreadFaults {
            file: File::open("/proc/thread-self/stat").ok(),
            buf: vec![0; 1024],
        }
    }

    /// Minor faults so far (0 when `/proc` is unavailable).
    pub fn read(&mut self) -> u64 {
        let Some(file) = &self.file else { return 0 };
        let n = file.read_at(&mut self.buf, 0).unwrap_or(0);
        stat_field(&String::from_utf8_lossy(&self.buf[..n]), 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_skip_command_names_with_spaces() {
        let line = "42 (a b) c) R 1 2 3 4 5 6 77 8 9 10 11 12 13 14";
        assert_eq!(stat_field(line, 10), 77);
        assert_eq!(stat_field(line, 14), 11);
        assert_eq!(stat_field(line, 15), 12);
    }

    #[test]
    fn thread_faults_grow_when_fresh_memory_is_touched() {
        let mut faults = ThreadFaults::open();
        let before = faults.read();
        let mut v = vec![0u8; 8 << 20];
        for i in (0..v.len()).step_by(4096) {
            v[i] = 1;
        }
        std::hint::black_box(&v);
        assert!(faults.read() > before + 1000, "2k fresh pages fault in");
    }
}
