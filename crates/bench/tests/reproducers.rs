//! Every campaign reproducer parses under the `swctl` command table and
//! rebuilds the cell that failed, so replaying it reruns the same run.

use strandweaver::experiment::{Campaign, Experiment};
use strandweaver::{BenchmarkId, HwDesign, LangModel};
use sw_bench::cli::{self, Args};
use sw_serve::{ArrivalKind, ServeConfig, ShedPolicy};

fn parse(cmd: &str) -> Args {
    let argv: Vec<String> = cmd
        .strip_prefix("swctl ")
        .unwrap_or_else(|| panic!("not a swctl command: {cmd}"))
        .split_whitespace()
        .map(str::to_string)
        .collect();
    cli::parse(&argv).unwrap_or_else(|e| panic!("{cmd}: {e:?}"))
}

fn cells() -> Vec<Experiment> {
    let plain = Experiment::new(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
        .threads(2)
        .total_regions(16)
        .ops_per_region(2)
        .seed(42);
    let redo = Experiment::new(BenchmarkId::Hashmap, LangModel::Native, HwDesign::Eadr)
        .threads(3)
        .total_regions(40)
        .ops_per_region(5)
        .seed(7)
        .redo();
    vec![plain, redo]
}

/// Each campaign, the subcommand that runs it, and its mode switch.
const CAMPAIGNS: [(Campaign, &str, Option<&str>); 5] = [
    (Campaign::Crash, "crash", None),
    (Campaign::Faults, "faults", None),
    (Campaign::HeapFaults, "faults", Some("--heap")),
    (Campaign::HeapSmoke, "heap", Some("--verify")),
    (Campaign::Chaos, "chaos", None),
];

#[test]
fn campaign_reproducers_rebuild_their_cell() {
    // Only chaos simulates the machine, so only its cells carry --sq/--pq.
    let mut small_queues = cells();
    for e in &mut small_queues {
        e.sim.store_queue_entries = 8;
        e.sim.persist_queue_entries = 4;
    }
    let runs = CAMPAIGNS
        .into_iter()
        .flat_map(|c| cells().into_iter().map(move |e| (c, e)))
        .chain(small_queues.into_iter().map(|e| (CAMPAIGNS[4], e)));
    for ((campaign, subcommand, switch), cell) in runs {
        let cmd = cell.repro_cmd(campaign, 9);
        let args = parse(&cmd);
        assert_eq!(args.command(), subcommand, "{cmd}");
        for mode in ["--heap", "--verify", "--sweep"] {
            assert_eq!(args.has(mode), switch == Some(mode), "{cmd}");
        }
        assert_eq!(args.rounds(), Ok(9), "{cmd}");
        let rebuilt = args.experiment().unwrap_or_else(|e| panic!("{cmd}: {e:?}"));
        assert_eq!(format!("{rebuilt:?}"), format!("{cell:?}"), "{cmd}");
    }
}

#[test]
fn serve_reproducers_rebuild_their_config() {
    let mut knobs = ServeConfig::new(BenchmarkId::NStoreBal, LangModel::Atlas, HwDesign::Hops);
    knobs.redo = true;
    (knobs.threads, knobs.regions, knobs.ops, knobs.seed) = (3, 30, 3, 5);
    (knobs.shards, knobs.requests, knobs.offered_load) = (2, 77, 1.3);
    (knobs.arrival, knobs.shed) = (ArrivalKind::Bursty, ShedPolicy::TokenBucket);
    (knobs.queue_depth, knobs.deadline_factor, knobs.faults) = (9, 4, false);
    let plain = ServeConfig::new(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver);
    for cfg in [plain, knobs] {
        let cmd = cfg.repro_cmd();
        let args = parse(&cmd);
        assert_eq!(args.command(), "serve", "{cmd}");
        let rebuilt = args
            .serve_config()
            .unwrap_or_else(|e| panic!("{cmd}: {e:?}"));
        assert_eq!(format!("{rebuilt:?}"), format!("{cfg:?}"), "{cmd}");
    }
}
