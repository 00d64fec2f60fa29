//! `swctl` exit codes for flags a subcommand cannot honour: every such
//! flag — per subcommand and per mode switch — exits 2 with a named error
//! and prints nothing to stdout, so no flag is ever silently dropped.

use std::process::Command;

/// A command line and the error it must exit 2 with.
const REJECTED: &[(&str, &str)] = &[
    ("run queue --rounds 3", "run does not take --rounds"),
    ("run queue --jsonl", "run does not take --jsonl"),
    ("run queue --out t.json", "run does not take --out"),
    ("crash queue --stats", "crash does not take --stats"),
    ("crash queue --json", "crash does not take --json"),
    ("crash queue --jsonl", "crash does not take --jsonl"),
    ("crash queue --out t.json", "crash does not take --out"),
    ("crash queue --sq 1", "crash does not take --sq"),
    ("crash queue --pq 1", "crash does not take --pq"),
    ("faults queue --stats", "faults does not take --stats"),
    ("faults queue --jsonl", "faults does not take --jsonl"),
    ("faults queue --out t.json", "faults does not take --out"),
    ("faults queue --sq 1", "faults does not take --sq"),
    ("faults queue --heap --pq 1", "faults does not take --pq"),
    ("heap hashmap --stats", "heap does not take --stats"),
    ("heap hashmap --jsonl", "heap does not take --jsonl"),
    ("heap hashmap --out t.json", "heap does not take --out"),
    ("heap hashmap --sq 1", "heap does not take --sq"),
    ("heap hashmap --verify --pq 1", "heap does not take --pq"),
    ("chaos queue --stats", "chaos does not take --stats"),
    ("chaos queue --jsonl", "chaos does not take --jsonl"),
    ("chaos queue --out t.json", "chaos does not take --out"),
    ("serve queue --rounds 3", "serve does not take --rounds"),
    ("serve queue --stats", "serve does not take --stats"),
    ("serve queue --jsonl", "serve does not take --jsonl"),
    ("serve queue --out t.json", "serve does not take --out"),
    ("serve queue --sq 1 --json", "serve does not take --sq"),
    ("serve queue --pq 1 --json", "serve does not take --pq"),
    ("trace queue --rounds 3", "trace does not take --rounds"),
    ("trace queue --stats", "trace does not take --stats"),
    ("trace queue --json", "trace does not take --json"),
    ("perf queue --rounds 3", "perf does not take --rounds"),
    ("perf queue --stats", "perf does not take --stats"),
    ("perf queue --json", "perf does not take --json"),
    ("perf queue --jsonl", "perf does not take --jsonl"),
    ("perf queue --out t.json", "perf does not take --out"),
    // Mode switches reject the flags they override.
    (
        "chaos queue --sweep --design hops",
        "chaos does not take --design with --sweep",
    ),
    (
        "chaos queue --sweep --lang sfr",
        "chaos does not take --lang with --sweep",
    ),
    (
        "serve queue --sweep --design hops",
        "serve does not take --design with --sweep",
    ),
    (
        "serve queue --sweep --lang sfr",
        "serve does not take --lang with --sweep",
    ),
    (
        "serve queue --sweep --load 0.1",
        "serve does not take --load with --sweep",
    ),
    (
        "heap hashmap --rounds 3",
        "heap does not take --rounds without --verify",
    ),
    (
        "heap hashmap --verify --churn",
        "heap does not take --churn with --verify",
    ),
    // The targets and the perf tools.
    ("litmus --json", "litmus does not take --json"),
    ("table1 --json", "table1 does not take --json"),
    ("table2 --design hops", "table2 does not take --design"),
    ("fig7 --lang sfr", "fig7 does not take --lang"),
    ("summary --design hops", "summary does not take --design"),
    ("bench --json", "bench does not take --json"),
    (
        "benchcmp a.json b.json --json",
        "benchcmp does not take --json",
    ),
    // A campaign of zero rounds would pass without checking anything.
    ("crash queue --rounds 0", "--rounds must be at least 1"),
    ("faults queue --rounds 0", "--rounds must be at least 1"),
    (
        "faults queue --heap --rounds 0",
        "--rounds must be at least 1",
    ),
    (
        "heap hashmap --verify --rounds 0",
        "--rounds must be at least 1",
    ),
    ("chaos queue --rounds 0", "--rounds must be at least 1"),
    (
        "chaos queue --sweep --rounds 0",
        "--rounds must be at least 1",
    ),
    // Flags no subcommand knows.
    ("run queue --bogus", "unknown flag: --bogus"),
    ("fig9 --bogus", "unknown flag: --bogus"),
];

#[test]
fn rejected_flags_exit_2_with_a_named_error_and_no_output() {
    for (line, error) in REJECTED {
        let out = Command::new(env!("CARGO_BIN_EXE_swctl"))
            .args(line.split_whitespace())
            // Tiny defaults, so a flag accepted by mistake fails fast.
            .env("SW_BENCH_THREADS", "1")
            .env("SW_BENCH_REGIONS", "1")
            .env("SW_BENCH_OPS_PER_REGION", "1")
            .output()
            .expect("swctl runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert_eq!(stderr.trim_end(), *error, "{line}");
        assert!(out.stdout.is_empty(), "{line}: no report is printed");
    }
}
