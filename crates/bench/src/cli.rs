//! The `swctl` command table and its one strict parser.
//!
//! `COMMANDS` lists every subcommand with exactly the flags it honours,
//! and [`parse`] checks a command line against it: a flag the subcommand
//! cannot honour fails with `<cmd> does not take <flag>`, a flag no
//! subcommand knows fails with `unknown flag: <flag>`, and a mode switch
//! (`chaos --sweep`, `serve --sweep`, `heap --verify`) rejects the flags
//! it overrides the same way. [`usage`] prints the same table, so which
//! flags a subcommand accepts is decided in one place.
//!
//! Values are read through the typed getters of [`Args`]: counts must be
//! at least 1, labels resolve against their registries with a named
//! error, and [`Args::experiment`] rejects an illegal lang × design pair.
//! The library layer never exits the process: parsers return
//! [`CliError`], and the binary decides whether to print the message or
//! the full usage text before exiting 2.

use std::fmt::Write as _;
use std::str::FromStr;

use strandweaver::experiment::Experiment;
use strandweaver::{BenchmarkId, HwDesign, LangModel};
use sw_serve::{ArrivalKind, ServeConfig, ShedPolicy};

use crate::{Scale, Target, TargetFilters};

/// How a strict parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A named error the binary prints verbatim before exiting 2.
    Message(String),
    /// A malformed value or missing operand: the binary falls back to the
    /// full usage text (still exit 2).
    Usage,
}

impl CliError {
    fn msg(m: impl Into<String>) -> Self {
        CliError::Message(m.into())
    }
}

/// Every flag `swctl` knows, with the placeholder of its value (`None`
/// for a switch).
#[rustfmt::skip]
const FLAGS: &[(&str, Option<&str>)] = &[
    ("--lang", Some("<lang>")), ("--design", Some("<design>")), ("--redo", None),
    ("--threads", Some("N")), ("--regions", Some("N")), ("--ops", Some("N")),
    ("--seed", Some("N")), ("--rounds", Some("N")), ("--sq", Some("N")), ("--pq", Some("N")),
    ("--stats", None), ("--json", None), ("--jsonl", None), ("--out", Some("FILE")),
    ("--heap", None), ("--churn", None), ("--verify", None), ("--sweep", None),
    ("--shards", Some("N")), ("--requests", Some("N")), ("--load", Some("F")),
    ("--arrival", Some("<arrival>")), ("--shed-policy", Some("<policy>")),
    ("--queue-depth", Some("N")), ("--deadline-factor", Some("N")), ("--no-faults", None),
    ("--label", Some("S")), ("--warmup", Some("N")), ("--repeat", Some("N")),
    ("--tolerance", Some("PCT")), ("--scale-wall", Some("X")),
    ("--floor", Some("<target>:<events_per_sec>")),
];

/// A switch that changes what a subcommand runs, with the flags only one
/// side of it can honour.
struct Mode {
    /// The switch (`--sweep`, `--verify`).
    switch: &'static str,
    /// Flags the switch overrides, space-separated: rejected with it.
    overrides: &'static str,
    /// Flags only the switched mode reads, space-separated: rejected
    /// without it.
    needs: &'static str,
}

/// One row of the command table.
struct Command {
    /// The subcommands sharing this row, `|`-separated.
    names: &'static str,
    /// Positional operands, space-separated.
    operands: &'static str,
    /// Exactly the flags the subcommands honour, space-separated.
    flags: &'static str,
    /// The mode switch among `flags`, if any.
    mode: Option<Mode>,
    /// What the subcommands do, for the usage text.
    about: &'static str,
}

impl Command {
    fn takes(&self, flag: &str) -> bool {
        self.flags.split_whitespace().any(|f| f == flag)
    }
}

/// Every `swctl` subcommand and exactly the flags it honours.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { names: "run", operands: "<benchmark>", mode: None,
        flags: "--lang --design --redo --threads --regions --ops --seed --sq --pq --stats --json",
        about: "simulate one cell" },
    Command { names: "crash", operands: "<benchmark>", mode: None,
        flags: "--lang --design --redo --threads --regions --ops --seed --rounds",
        about: "crash-consistency campaign: every sampled crash state must recover" },
    Command { names: "faults", operands: "<benchmark>", mode: None,
        flags: "--lang --design --redo --threads --regions --ops --seed --rounds --json --heap",
        about: "fault-injection campaign: torn/bitflip/poison damage in sampled crash images must \
                be detected, salvaged and reconverge; --heap aims it at allocator metadata" },
    Command { names: "heap", operands: "<benchmark>",
        flags: "--lang --design --redo --threads --regions --ops --seed --json --churn --verify \
                --rounds",
        mode: Some(Mode { switch: "--verify", overrides: "--churn", needs: "--rounds" }),
        about: "end-of-run heap-pool occupancy and alloc/free counters; --verify runs the \
                allocator leak smoke instead: crash, recover, reclaim, assert zero leaks" },
    Command { names: "chaos", operands: "<benchmark>",
        flags: "--lang --design --redo --threads --regions --ops --seed --sq --pq --rounds \
                --json --sweep",
        mode: Some(Mode { switch: "--sweep", overrides: "--design --lang", needs: "" }),
        about: "online device-fault campaign: live transient/permanent/poison faults must never \
                corrupt silently or break PMO order; --sweep covers every legal design x lang" },
    Command { names: "serve", operands: "<benchmark>",
        flags: "--lang --design --redo --threads --regions --ops --seed --json --sweep --shards \
                --requests --load --arrival --shed-policy --queue-depth --deadline-factor \
                --no-faults",
        mode: Some(Mode { switch: "--sweep", overrides: "--design --lang --load", needs: "" }),
        about: "fault-tolerant open-loop serving with breakers, Salvage recovery and failover; \
                --sweep walks every legal design x lang pair at loads 0.5 0.9 1.3" },
    Command { names: "trace", operands: "<benchmark>", mode: None,
        flags: "--lang --design --redo --threads --regions --ops --seed --sq --pq --out --jsonl",
        about: "simulate with event tracing and write a Perfetto timeline to --out \
                (default trace.json), or JSON lines with --jsonl" },
    Command { names: "litmus|fig1|fig2|table1", operands: "", mode: None, flags: "",
        about: "the Figure 2 litmus suite (also fig2), Figure 1, Table I" },
    Command { names: "table2", operands: "", mode: None, flags: "--json",
        about: "Table II: benchmark write intensity" },
    Command { names: "fig7|fig8", operands: "", mode: None, flags: "--json --design",
        about: "Figure 7 speedups, Figure 8 stalls; --design sweeps only Intel x86 and <design>" },
    Command { names: "fig9|fig10", operands: "", mode: None, flags: "--json --design --lang",
        about: "Figures 9-10 sensitivity of the measured cell (default strandweaver, sfr)" },
    Command { names: "summary", operands: "", mode: None, flags: "--json --lang",
        about: "headline numbers; --lang sweeps only that model" },
    Command { names: "bench", operands: "", mode: None,
        flags: "--label --warmup --repeat --out --design --lang",
        about: "time every simulation-heavy target and write BENCH_<label>.json (or --out)" },
    Command { names: "benchcmp", operands: "<cur> <base>", mode: None,
        flags: "--tolerance --scale-wall --floor",
        about: "compare two BENCH_*.json reports; exit 1 past --tolerance (default 25%) or \
                under a --floor (repeatable); --scale-wall multiplies <cur>" },
];

/// A command line that passed [`parse`].
#[derive(Debug, Clone)]
pub struct Args {
    command: &'static str,
    operands: Vec<String>,
    /// The flags in the order given, each with its value.
    flags: Vec<(&'static str, Option<String>)>,
}

/// Checks `argv` (without the program name) against the command table.
/// An unknown subcommand or a wrong operand count falls back to usage.
pub fn parse(argv: &[String]) -> Result<Args, CliError> {
    let (name, rest) = argv.split_first().ok_or(CliError::Usage)?;
    let (command, cmd) = COMMANDS
        .iter()
        .find_map(|c| c.names.split('|').find(|n| n == name).map(|n| (n, c)))
        .ok_or(CliError::Usage)?;
    let mut args = Args {
        command,
        operands: Vec::new(),
        flags: Vec::new(),
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if !a.starts_with('-') {
            args.operands.push(a.clone());
            continue;
        }
        let &(flag, placeholder) = FLAGS
            .iter()
            .find(|(f, _)| f == a)
            .ok_or_else(|| CliError::msg(format!("unknown flag: {a}")))?;
        if !cmd.takes(flag) {
            return Err(CliError::msg(format!("{command} does not take {flag}")));
        }
        let value = placeholder.map(|_| it.next().cloned());
        let value = value.map(|v| v.ok_or_else(|| CliError::msg(format!("{flag} needs a value"))));
        args.flags.push((flag, value.transpose()?));
    }
    if let Some(mode) = &cmd.mode {
        let (side, rejected) = if args.has(mode.switch) {
            ("with", mode.overrides)
        } else {
            ("without", mode.needs)
        };
        if let Some(flag) = rejected.split_whitespace().find(|f| args.has(f)) {
            return Err(CliError::msg(format!(
                "{command} does not take {flag} {side} {}",
                mode.switch
            )));
        }
    }
    let wanted = cmd.operands.split_whitespace().count();
    match args.operands.get(wanted) {
        Some(extra) => Err(CliError::msg(format!("unexpected argument: {extra}"))),
        None if args.operands.len() < wanted => Err(CliError::Usage),
        None => Ok(args),
    }
}

impl Args {
    /// The subcommand (`run`, `fig7`, …).
    pub fn command(&self) -> &'static str {
        self.command
    }

    /// The positional operands, as many as the subcommand takes
    /// (`<benchmark>`, or `<cur> <base>`).
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The last value given for `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let last = self.flags.iter().rev().find(|(f, _)| *f == flag);
        last.and_then(|(_, v)| v.as_deref())
    }

    /// `flag`'s value as a number, or `default`; a malformed number is a
    /// usage error.
    pub fn num<T: FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        self.value(flag)
            .map_or(Ok(default), |v| v.parse().map_err(|_| CliError::Usage))
    }

    /// `flag`'s value, or `default`, as a count that must be at least 1.
    pub fn count<T: FromStr + Default + PartialEq>(
        &self,
        flag: &str,
        default: T,
    ) -> Result<T, CliError> {
        let n = self.num(flag, default)?;
        if n == T::default() {
            return Err(CliError::msg(format!("{flag} must be at least 1")));
        }
        Ok(n)
    }

    /// Campaign rounds (`--rounds`, default 100).
    pub fn rounds(&self) -> Result<usize, CliError> {
        self.count("--rounds", 100)
    }

    /// The `<benchmark>` operand.
    fn bench(&self) -> Result<BenchmarkId, CliError> {
        self.operands
            .first()
            .and_then(|s| parse_bench(s))
            .ok_or(CliError::Usage)
    }

    /// `--design`, when given.
    fn design(&self) -> Result<Option<HwDesign>, CliError> {
        self.value("--design").map(parse_design).transpose()
    }

    /// `--lang`, when given.
    fn lang(&self) -> Result<Option<LangModel>, CliError> {
        self.value("--lang").map(parse_lang).transpose()
    }

    /// The cell of a workload subcommand: `<benchmark>` under `--lang`
    /// (default txn) on `--design` (default strandweaver), sized by
    /// `--threads/--regions/--ops` (defaults from [`Scale::from_env`]),
    /// with `--seed`, `--sq`, `--pq` (counts, like the scale) and `--redo`
    /// applied.
    pub fn experiment(&self) -> Result<Experiment, CliError> {
        let scale = Scale::from_env().map_err(CliError::Message)?;
        let lang = self.lang()?.unwrap_or(LangModel::Txn);
        let design = self.design()?.unwrap_or(HwDesign::StrandWeaver);
        check_legal(lang, design)?;
        let mut e = Experiment::new(self.bench()?, lang, design)
            .threads(self.count("--threads", scale.threads)?)
            .total_regions(self.count("--regions", scale.regions)?)
            .ops_per_region(self.count("--ops", scale.ops_per_region)?);
        e.seed = self.num("--seed", e.seed)?;
        e.sim.store_queue_entries = self.count("--sq", e.sim.store_queue_entries)?;
        e.sim.persist_queue_entries = self.count("--pq", e.sim.persist_queue_entries)?;
        Ok(if self.has("--redo") { e.redo() } else { e })
    }

    /// The serving cell of `serve`: the cell flags as in
    /// [`Args::experiment`], plus the serving knobs over
    /// [`ServeConfig::new`]'s defaults.
    pub fn serve_config(&self) -> Result<ServeConfig, CliError> {
        let e = self.experiment()?;
        let mut cfg = ServeConfig::new(e.bench, e.lang, e.design);
        cfg.redo = self.has("--redo");
        (cfg.threads, cfg.regions, cfg.ops) = (e.threads, e.total_regions, e.ops_per_region);
        cfg.seed = self.num("--seed", cfg.seed)?;
        cfg.faults = !self.has("--no-faults");
        cfg.shards = self.count("--shards", cfg.shards)?;
        cfg.requests = self.count("--requests", cfg.requests)?;
        cfg.offered_load = self.num("--load", cfg.offered_load)?;
        cfg.queue_depth = self.count("--queue-depth", cfg.queue_depth)?;
        cfg.deadline_factor = self.num("--deadline-factor", cfg.deadline_factor)?;
        if let Some(v) = self.value("--arrival") {
            cfg.arrival = ArrivalKind::from_label(v)
                .ok_or_else(|| unknown_label("arrival", v, ArrivalKind::ALL.map(|k| k.label())))?;
        }
        if let Some(v) = self.value("--shed-policy") {
            cfg.shed = ShedPolicy::from_label(v).ok_or_else(|| {
                unknown_label("shed policy", v, ShedPolicy::ALL.map(|p| p.label()))
            })?;
        }
        if cfg.offered_load <= 0.0 {
            return Err(CliError::msg("--load must be positive"));
        }
        if cfg.deadline_factor < 2 {
            return Err(CliError::msg("--deadline-factor must be at least 2"));
        }
        Ok(cfg)
    }

    /// The `--design`/`--lang` narrowing of `targets`, rejected where a
    /// target would run an illegal pair: fig9/fig10 run the measured lang
    /// (default sfr) on the Intel baseline too, and the summary runs it on
    /// every design.
    pub fn target_filters(&self, targets: &[Target]) -> Result<TargetFilters, CliError> {
        let filters = TargetFilters {
            design: self.design()?,
            lang: self.lang()?,
        };
        for t in targets {
            let designs = match t {
                Target::Fig9 | Target::Fig10 => vec![
                    HwDesign::IntelX86,
                    filters.design.unwrap_or(HwDesign::StrandWeaver),
                ],
                Target::Summary => HwDesign::ALL.to_vec(),
                _ => continue,
            };
            let lang = filters.lang.unwrap_or(LangModel::Sfr);
            designs.into_iter().try_for_each(|d| check_legal(lang, d))?;
        }
        Ok(filters)
    }

    /// The repeatable `--floor <target>:<events_per_sec>` minimums.
    pub fn floors(&self) -> Result<Vec<(String, f64)>, CliError> {
        let specs = self.flags.iter().filter(|(f, _)| *f == "--floor");
        specs
            .filter_map(|(_, v)| v.as_deref())
            .map(|spec| {
                let (target, value) = spec
                    .split_once(':')
                    .ok_or_else(|| CliError::msg("--floor expects <target>:<events_per_sec>"))?;
                let value = value.parse().map_err(|_| CliError::Usage)?;
                Ok((target.to_string(), value))
            })
            .collect()
    }
}

/// The usage text: every subcommand with its operands and flags, printed
/// from the command table, then the label registries.
pub fn usage() -> String {
    let mut s = String::from("usage: swctl <command> [flags]\n");
    for c in COMMANDS {
        let _ = write!(s, "\n  {:<22}", format!("{} {}", c.names, c.operands));
        wrap(&mut s, c.about.split_whitespace().map(str::to_string));
        if !c.flags.is_empty() {
            let flags = c.flags.split_whitespace().map(|f| {
                match FLAGS.iter().find(|(name, _)| *name == f) {
                    Some((_, Some(placeholder))) => format!("{f} {placeholder}"),
                    _ => f.to_string(),
                }
            });
            let _ = write!(s, "\n{:24}", "");
            wrap(&mut s, std::iter::once("flags:".to_string()).chain(flags));
        }
        if let Some(m) = &c.mode {
            for (side, rejected) in [("with", m.overrides), ("without", m.needs)] {
                if !rejected.is_empty() {
                    let _ = write!(s, "\n{:24} {side} {}: not {rejected}", "", m.switch);
                }
            }
        }
    }
    let _ = write!(
        s,
        "\n\nSW_PERF=1 profiles any subcommand and prints the phase table to stderr.\
         \n\nbenchmarks: {}\ndesigns: {}\nlangs: {}\narrivals: {}\nshed policies: {}",
        BenchmarkId::ALL.map(|b| b.label()).join(" "),
        HwDesign::ALL.map(|d| d.label()).join(" "),
        LangModel::ALL.map(|l| l.label()).join(" "),
        ArrivalKind::ALL.map(|k| k.label()).join(" "),
        ShedPolicy::ALL.map(|p| p.label()).join(" "),
    );
    s
}

/// Appends `words` to `s`, each after a space, breaking lines at 100
/// columns under a 24-column indent.
fn wrap(s: &mut String, words: impl Iterator<Item = String>) {
    let mut col = s.len() - s.rfind('\n').map_or(0, |i| i + 1);
    for w in words {
        if col + 1 + w.len() > 100 {
            let _ = write!(s, "\n{:24}", "");
            col = 24;
        }
        let _ = write!(s, " {w}");
        col += 1 + w.len();
    }
}

/// Resolves a benchmark label.
fn parse_bench(s: &str) -> Option<BenchmarkId> {
    BenchmarkId::ALL.into_iter().find(|b| b.label() == s)
}

fn unknown_label<const N: usize>(what: &str, v: &str, valid: [&str; N]) -> CliError {
    CliError::msg(format!("unknown {what} '{v}' (valid: {})", valid.join(" ")))
}

/// Resolves a `--design` value with a named error (not the generic usage
/// text) on an unknown label.
fn parse_design(s: &str) -> Result<HwDesign, CliError> {
    HwDesign::from_label(s)
        .ok_or_else(|| unknown_label("design", s, HwDesign::ALL.map(|d| d.label())))
}

/// Resolves a `--lang` value with a named error (not the generic usage
/// text) on an unknown label.
fn parse_lang(s: &str) -> Result<LangModel, CliError> {
    LangModel::from_label(s)
        .ok_or_else(|| unknown_label("lang", s, LangModel::ALL.map(|l| l.label())))
}

/// Rejects an illegal language model × hardware design combination (the
/// log-free Native model requires an eADR-class design).
fn check_legal(lang: LangModel, design: HwDesign) -> Result<(), CliError> {
    if lang.legal_on(design) {
        Ok(())
    } else {
        Err(CliError::msg(format!(
            "lang '{lang}' is not legal on design '{design}': it needs a design that \
             persists stores at visibility (eADR-class)"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<Args, CliError> {
        parse(
            &line
                .split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>(),
        )
    }

    fn args(line: &str) -> Args {
        parsed(line).unwrap_or_else(|e| panic!("{line}: {e:?}"))
    }

    fn named(m: &str) -> CliError {
        CliError::Message(m.into())
    }

    #[test]
    fn defaults_and_overrides_parse() {
        let e = args(
            "run queue --lang sfr --design intel-x86 --threads 3 --regions 9 --ops 2 --seed 7",
        )
        .experiment()
        .expect("valid flags");
        assert_eq!(
            (e.bench, e.lang, e.design),
            (BenchmarkId::Queue, LangModel::Sfr, HwDesign::IntelX86)
        );
        assert_eq!((e.threads, e.total_regions, e.ops_per_region), (3, 9, 2));
        assert_eq!(e.seed, 7);
        assert_eq!(e.strategy, strandweaver::lang::LogStrategy::Undo);
        let e = args("trace queue --sq 1 --pq 2 --redo")
            .experiment()
            .unwrap();
        assert_eq!(
            (e.sim.store_queue_entries, e.sim.persist_queue_entries),
            (1, 2)
        );
        assert_eq!(e.strategy, strandweaver::lang::LogStrategy::Redo);
        // A zero-entry queue is rejected, not clamped to one entry.
        for flag in ["--sq", "--pq"] {
            let e = args(&format!("trace queue {flag} 0")).experiment();
            assert_eq!(e.unwrap_err(), named(&format!("{flag} must be at least 1")));
        }
    }

    #[test]
    fn unknown_flag_is_a_named_error() {
        assert_eq!(
            parsed("run queue --bogus").unwrap_err(),
            named("unknown flag: --bogus")
        );
        assert_eq!(parsed("fig7 -x").unwrap_err(), named("unknown flag: -x"));
    }

    #[test]
    fn flags_a_subcommand_cannot_honour_are_named_errors() {
        for (line, error) in [
            ("serve queue --sq 1", "serve does not take --sq"),
            ("serve queue --pq 1", "serve does not take --pq"),
            ("crash queue --json", "crash does not take --json"),
            ("run queue --rounds 3", "run does not take --rounds"),
            ("fig1 --json", "fig1 does not take --json"),
            ("summary --design hops", "summary does not take --design"),
            ("bench --json", "bench does not take --json"),
        ] {
            assert_eq!(parsed(line).unwrap_err(), named(error), "{line}");
        }
    }

    #[test]
    fn mode_switches_reject_the_flags_they_override() {
        for (line, error) in [
            (
                "chaos queue --sweep --design hops",
                "chaos does not take --design with --sweep",
            ),
            (
                "chaos queue --lang sfr --sweep",
                "chaos does not take --lang with --sweep",
            ),
            (
                "serve queue --load 0.1 --sweep",
                "serve does not take --load with --sweep",
            ),
            (
                "heap queue --rounds 3",
                "heap does not take --rounds without --verify",
            ),
            (
                "heap hashmap --verify --churn",
                "heap does not take --churn with --verify",
            ),
        ] {
            assert_eq!(parsed(line).unwrap_err(), named(error), "{line}");
        }
        for line in [
            "heap hashmap --verify --rounds 3",
            "chaos queue --design hops",
            "serve queue --load 0.1",
        ] {
            assert!(parsed(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn missing_value_is_a_named_error() {
        assert_eq!(
            parsed("run queue --seed").unwrap_err(),
            named("--seed needs a value")
        );
        assert_eq!(
            parsed("bench --label").unwrap_err(),
            named("--label needs a value")
        );
    }

    #[test]
    fn malformed_number_falls_back_to_usage() {
        assert_eq!(
            args("run queue --threads two").experiment().unwrap_err(),
            CliError::Usage
        );
        assert_eq!(
            args("serve queue --load x").serve_config().unwrap_err(),
            CliError::Usage
        );
        assert_eq!(
            args("benchcmp a b --tolerance x")
                .num("--tolerance", 25.0)
                .unwrap_err(),
            CliError::Usage
        );
        assert_eq!(
            args("benchcmp a b --floor fig7:x").floors().unwrap_err(),
            CliError::Usage
        );
    }

    #[test]
    fn zero_counts_are_rejected() {
        for flag in ["--threads", "--regions", "--ops"] {
            let e = args(&format!("run queue {flag} 0"))
                .experiment()
                .unwrap_err();
            assert_eq!(e, named(&format!("{flag} must be at least 1")));
        }
        for cmd in [
            "crash queue",
            "faults queue --heap",
            "heap hashmap --verify",
            "chaos queue --sweep",
        ] {
            let e = args(&format!("{cmd} --rounds 0")).rounds().unwrap_err();
            assert_eq!(e, named("--rounds must be at least 1"), "{cmd}");
        }
        assert_eq!(args("crash queue").rounds(), Ok(100));
        let e = args("serve queue --shards 0").serve_config().unwrap_err();
        assert_eq!(e, named("--shards must be at least 1"));
        let e = args("serve queue --load 0").serve_config().unwrap_err();
        assert_eq!(e, named("--load must be positive"));
        let e = args("bench --repeat 0").count("--repeat", 3).unwrap_err();
        assert_eq!(e, named("--repeat must be at least 1"));
    }

    #[test]
    fn illegal_lang_design_pair_is_rejected() {
        // The log-free native model needs an eADR-class design.
        let e = args("run queue --lang native --design intel-x86")
            .experiment()
            .unwrap_err();
        assert!(matches!(e, CliError::Message(m) if m.contains("not legal")));
        assert!(args("run queue --lang native --design eadr")
            .experiment()
            .is_ok());
        // fig9/fig10 normalize to Intel x86; the summary runs every design.
        for (line, targets) in [
            ("fig9 --lang native --design eadr", &[Target::Fig9][..]),
            ("summary --lang native", &[Target::Summary]),
            ("bench --lang native", &Target::BENCH),
        ] {
            let e = args(line).target_filters(targets).unwrap_err();
            assert!(
                matches!(e, CliError::Message(m) if m.contains("not legal")),
                "{line}"
            );
        }
        let f = args("fig9 --lang atlas --design eadr")
            .target_filters(&[Target::Fig9])
            .unwrap();
        assert_eq!(
            (f.design, f.lang),
            (Some(HwDesign::Eadr), Some(LangModel::Atlas))
        );
    }

    #[test]
    fn unknown_labels_name_their_valid_sets() {
        for e in [
            parse_lang("pascal").unwrap_err(),
            parse_design("vax").unwrap_err(),
            args("serve queue --arrival steady")
                .serve_config()
                .unwrap_err(),
            args("serve queue --shed-policy random")
                .serve_config()
                .unwrap_err(),
        ] {
            assert!(
                matches!(&e, CliError::Message(m) if m.contains("valid:")),
                "{e:?}"
            );
        }
    }

    #[test]
    fn operands_are_counted() {
        assert_eq!(parsed("run").unwrap_err(), CliError::Usage);
        assert_eq!(parsed("nosuch").unwrap_err(), CliError::Usage);
        assert_eq!(parsed("benchcmp a.json").unwrap_err(), CliError::Usage);
        assert_eq!(
            args("run no-such-bench").experiment().unwrap_err(),
            CliError::Usage
        );
        assert_eq!(
            parsed("run queue extra").unwrap_err(),
            named("unexpected argument: extra")
        );
        assert_eq!(
            parsed("fig7 extra").unwrap_err(),
            named("unexpected argument: extra")
        );
        assert_eq!(
            args("benchcmp a.json b.json").operands(),
            ["a.json", "b.json"]
        );
        assert_eq!(args("litmus").command(), "litmus");
    }

    #[test]
    fn floors_repeat_and_name_their_shape() {
        let floors = args("benchcmp a b --floor fig7:10 --floor summary:2.5")
            .floors()
            .unwrap();
        assert_eq!(
            floors,
            [("fig7".to_string(), 10.0), ("summary".to_string(), 2.5)]
        );
        let e = args("benchcmp a b --floor fig7").floors().unwrap_err();
        assert_eq!(e, named("--floor expects <target>:<events_per_sec>"));
    }

    #[test]
    fn serve_flags_build_the_config() {
        let cfg = args(
            "serve nstore-bal --lang atlas --design hops --threads 3 --regions 30 --ops 3 --seed 5 \
             --redo --shards 2 --requests 77 --load 1.3 --arrival bursty --shed-policy deadline \
             --queue-depth 9 --deadline-factor 4 --no-faults",
        )
        .serve_config()
        .unwrap();
        assert_eq!(
            (cfg.bench, cfg.lang, cfg.design),
            (BenchmarkId::NStoreBal, LangModel::Atlas, HwDesign::Hops)
        );
        assert_eq!((cfg.threads, cfg.regions, cfg.ops, cfg.seed), (3, 30, 3, 5));
        assert_eq!((cfg.shards, cfg.requests, cfg.offered_load), (2, 77, 1.3));
        assert_eq!(
            (cfg.arrival, cfg.shed),
            (ArrivalKind::Bursty, ShedPolicy::DeadlineShed)
        );
        assert_eq!((cfg.queue_depth, cfg.deadline_factor), (9, 4));
        assert!(cfg.redo && !cfg.faults);
    }

    #[test]
    fn the_table_is_consistent() {
        for c in COMMANDS {
            for f in c.flags.split_whitespace() {
                assert!(
                    FLAGS.iter().any(|(known, _)| *known == f),
                    "{}: {f}",
                    c.names
                );
            }
            if let Some(m) = &c.mode {
                let split = [m.switch, m.overrides, m.needs].join(" ");
                for f in split.split_whitespace() {
                    assert!(c.takes(f), "{} mode {}: {f}", c.names, m.switch);
                }
            }
        }
        for (f, _) in FLAGS {
            assert!(
                COMMANDS.iter().any(|c| c.takes(f)),
                "{f} is taken by no subcommand"
            );
        }
        // Every target has a row, and every timed target prints JSON.
        let row = |label: &str| {
            COMMANDS
                .iter()
                .find(|c| c.names.split('|').any(|n| n == label))
        };
        for t in Target::ALL {
            assert!(row(t.label()).is_some(), "{}", t.label());
        }
        for t in Target::BENCH {
            assert!(
                row(t.label()).unwrap().takes("--json"),
                "{} must take --json",
                t.label()
            );
        }
    }

    #[test]
    fn usage_prints_the_table_and_the_registries() {
        let text = usage();
        for c in COMMANDS {
            assert!(text.contains(c.names), "{}", c.names);
            for f in c.flags.split_whitespace() {
                assert!(text.contains(f), "{f}");
            }
        }
        let labels = |prefix: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(prefix))
                .map(str::to_string)
        };
        assert_eq!(
            labels("designs: "),
            Some(HwDesign::ALL.map(|d| d.label()).join(" "))
        );
        assert_eq!(
            labels("langs: "),
            Some(LangModel::ALL.map(|l| l.label()).join(" "))
        );
        assert!(text.lines().all(|l| l.len() <= 100), "{text}");
    }

    #[test]
    fn bench_labels_resolve() {
        assert_eq!(parse_bench("queue"), Some(BenchmarkId::Queue));
        assert_eq!(parse_bench("no-such-bench"), None);
    }
}
