//! Shared strict command-line parsing for `swctl` subcommands.
//!
//! Every workload-style subcommand (`run`, `crash`, `faults`, `heap`,
//! `chaos`, `trace`, `perf`, `serve`) accepts the same strict flag set:
//! `--lang`/`--design` resolved against the model/design registries,
//! numeric scale flags validated to be at least 1, `--seed` pinning
//! determinism, and *any* unknown flag rejected with exit code 2. Keeping
//! the parser here — instead of duplicated per subcommand — means new
//! subcommands get the contract for free and the error strings stay
//! reconciled.
//!
//! The library layer never exits the process: parsers return
//! [`CliError`], and the binary decides whether to print the message or
//! the full usage text before exiting 2.

use strandweaver::{BenchmarkId, HwDesign, LangModel};

use crate::Scale;

/// How a strict parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A named error the binary prints verbatim before exiting 2.
    Message(String),
    /// A malformed value: the binary falls back to the full usage text
    /// (still exit 2).
    Usage,
}

impl CliError {
    fn msg(m: impl Into<String>) -> Self {
        CliError::Message(m.into())
    }
}

/// Resolves a benchmark label.
pub fn parse_bench(s: &str) -> Option<BenchmarkId> {
    BenchmarkId::ALL.into_iter().find(|b| b.label() == s)
}

/// Resolves a `--design` value with a named error (not the generic usage
/// text) on an unknown label.
pub fn parse_design(s: &str) -> Result<HwDesign, CliError> {
    HwDesign::from_label(s).ok_or_else(|| {
        CliError::msg(format!(
            "unknown design '{s}' (valid: {})",
            HwDesign::ALL.map(|d| d.label()).join(" ")
        ))
    })
}

/// Resolves a `--lang` value with a named error (not the generic usage
/// text) on an unknown label.
pub fn parse_lang(s: &str) -> Result<LangModel, CliError> {
    LangModel::from_label(s).ok_or_else(|| {
        CliError::msg(format!(
            "unknown lang '{s}' (valid: {})",
            LangModel::ALL.map(|l| l.label()).join(" ")
        ))
    })
}

/// Rejects an illegal language model × hardware design combination (the
/// log-free Native model requires an eADR-class design).
pub fn check_legal(lang: LangModel, design: HwDesign) -> Result<(), CliError> {
    if lang.legal_on(design) {
        Ok(())
    } else {
        Err(CliError::msg(format!(
            "lang '{lang}' is not legal on design '{design}': it needs a design that \
             persists stores at visibility (eADR-class)"
        )))
    }
}

/// The strict flag set shared by the workload subcommands.
#[derive(Debug, Clone)]
pub struct Flags {
    /// Language-level persistency model (`--lang`).
    pub lang: LangModel,
    /// Hardware design (`--design`).
    pub design: HwDesign,
    /// Redo-log lowering (`--redo`).
    pub redo: bool,
    /// Simulated cores (`--threads`).
    pub threads: usize,
    /// Total failure-atomic regions (`--regions`).
    pub regions: usize,
    /// Operations per region (`--ops`).
    pub ops: usize,
    /// Campaign rounds (`--rounds`).
    pub rounds: usize,
    /// Print the per-core stats report (`--stats`).
    pub stats: bool,
    /// Machine-readable output (`--json`).
    pub json: bool,
    /// JSON-lines trace export (`--jsonl`).
    pub jsonl: bool,
    /// Output path (`--out`).
    pub out: Option<String>,
    /// Store-queue entries override (`--sq`).
    pub sq: Option<usize>,
    /// Persist-queue entries override (`--pq`).
    pub pq: Option<usize>,
    /// Deterministic seed (`--seed`).
    pub seed: Option<u64>,
}

fn next_value<'a>(
    it: &mut std::slice::Iter<'a, String>,
    name: &str,
) -> Result<&'a String, CliError> {
    it.next()
        .ok_or_else(|| CliError::msg(format!("{name} needs a value")))
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, CliError> {
    s.parse().map_err(|_| CliError::Usage)
}

/// Parses the shared strict flag set. Unknown flags are an error; scale
/// flags must be at least 1; the lang × design pair must be legal.
/// Defaults come from [`Scale::from_env`].
pub fn parse_flags(args: &[String]) -> Result<Flags, CliError> {
    let scale = Scale::from_env();
    let mut f = Flags {
        lang: LangModel::Txn,
        design: HwDesign::StrandWeaver,
        redo: false,
        threads: scale.threads,
        regions: scale.regions,
        ops: scale.ops_per_region,
        rounds: 100,
        stats: false,
        json: false,
        jsonl: false,
        out: None,
        sq: None,
        pq: None,
        seed: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--lang" => f.lang = parse_lang(next_value(&mut it, "--lang")?)?,
            "--design" => f.design = parse_design(next_value(&mut it, "--design")?)?,
            "--redo" => f.redo = true,
            "--stats" => f.stats = true,
            "--json" => f.json = true,
            "--jsonl" => f.jsonl = true,
            "--out" => f.out = Some(next_value(&mut it, "--out")?.clone()),
            "--threads" => f.threads = num(next_value(&mut it, "--threads")?)?,
            "--regions" => f.regions = num(next_value(&mut it, "--regions")?)?,
            "--ops" => f.ops = num(next_value(&mut it, "--ops")?)?,
            "--rounds" => f.rounds = num(next_value(&mut it, "--rounds")?)?,
            "--sq" => f.sq = Some(num(next_value(&mut it, "--sq")?)?),
            "--pq" => f.pq = Some(num(next_value(&mut it, "--pq")?)?),
            "--seed" => f.seed = Some(num(next_value(&mut it, "--seed")?)?),
            other => return Err(CliError::msg(format!("unknown flag: {other}"))),
        }
    }
    if f.threads == 0 || f.regions == 0 || f.ops == 0 {
        return Err(CliError::msg(
            "--threads, --regions, and --ops must be at least 1",
        ));
    }
    check_legal(f.lang, f.design)?;
    Ok(f)
}

/// Rejects any of `flags` in `args`: shared flags that `subcommand`
/// cannot honour fail with a named error instead of being silently
/// dropped.
pub fn reject_flags(args: &[String], subcommand: &str, flags: &[&str]) -> Result<(), CliError> {
    match args.iter().find(|a| flags.contains(&a.as_str())) {
        Some(flag) => Err(CliError::msg(format!(
            "{subcommand} does not take {flag}: its cells always run the Table I machine"
        ))),
        None => Ok(()),
    }
}

/// Removes a boolean subcommand-specific switch (e.g. `--sweep`, `--heap`)
/// from `args` before they reach [`parse_flags`], which would otherwise
/// reject it. Returns whether the switch was present.
pub fn take_switch(args: &mut Vec<String>, name: &str) -> bool {
    match args.iter().position(|a| a == name) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Removes a subcommand-specific `name <value>` flag pair from `args`
/// before they reach [`parse_flags`]. Returns the value when present,
/// an error when the flag is last (no value follows).
pub fn take_value(args: &mut Vec<String>, name: &str) -> Result<Option<String>, CliError> {
    match args.iter().position(|a| a == name) {
        Some(i) => {
            args.remove(i);
            if i < args.len() {
                Ok(Some(args.remove(i)))
            } else {
                Err(CliError::msg(format!("{name} needs a value")))
            }
        }
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn defaults_and_overrides_parse() {
        let f = parse_flags(&argv(
            "--lang sfr --design intel-x86 --threads 3 --regions 9 --ops 2 --seed 7",
        ))
        .expect("valid flags");
        assert_eq!(f.lang, LangModel::Sfr);
        assert_eq!(f.design, HwDesign::IntelX86);
        assert_eq!((f.threads, f.regions, f.ops), (3, 9, 2));
        assert_eq!(f.seed, Some(7));
        assert!(!f.json && !f.redo);
    }

    #[test]
    fn unknown_flag_is_a_named_error() {
        let e = parse_flags(&argv("--bogus")).unwrap_err();
        assert_eq!(e, CliError::Message("unknown flag: --bogus".into()));
    }

    #[test]
    fn missing_value_is_a_named_error() {
        let e = parse_flags(&argv("--seed")).unwrap_err();
        assert_eq!(e, CliError::Message("--seed needs a value".into()));
    }

    #[test]
    fn malformed_number_falls_back_to_usage() {
        assert_eq!(
            parse_flags(&argv("--threads two")).unwrap_err(),
            CliError::Usage
        );
    }

    #[test]
    fn zero_scale_is_rejected() {
        let e = parse_flags(&argv("--threads 0")).unwrap_err();
        assert!(matches!(e, CliError::Message(m) if m.contains("at least 1")));
    }

    #[test]
    fn illegal_lang_design_pair_is_rejected() {
        // The log-free native model needs an eADR-class design.
        let e = parse_flags(&argv("--lang native --design intel-x86")).unwrap_err();
        assert!(matches!(e, CliError::Message(m) if m.contains("not legal")));
        assert!(parse_flags(&argv("--lang native --design eadr")).is_ok());
    }

    #[test]
    fn unknown_lang_and_design_name_their_valid_sets() {
        let e = parse_lang("pascal").unwrap_err();
        assert!(matches!(e, CliError::Message(m) if m.contains("valid:")));
        let e = parse_design("vax").unwrap_err();
        assert!(matches!(e, CliError::Message(m) if m.contains("valid:")));
    }

    #[test]
    fn take_switch_strips_only_its_flag() {
        let mut args = argv("--sweep --json");
        assert!(take_switch(&mut args, "--sweep"));
        assert!(!take_switch(&mut args, "--sweep"));
        assert_eq!(args, argv("--json"));
    }

    #[test]
    fn take_value_strips_flag_and_value() {
        let mut args = argv("--load 0.9 --json");
        assert_eq!(take_value(&mut args, "--load").unwrap(), Some("0.9".into()));
        assert_eq!(args, argv("--json"));
        assert_eq!(take_value(&mut args, "--load").unwrap(), None);
        let mut dangling = argv("--json --load");
        let e = take_value(&mut dangling, "--load").unwrap_err();
        assert_eq!(e, CliError::Message("--load needs a value".into()));
    }

    #[test]
    fn rejected_flags_are_named_errors() {
        let e = reject_flags(&argv("--json --pq 2"), "serve", &["--sq", "--pq"]).unwrap_err();
        assert_eq!(
            e,
            CliError::Message(
                "serve does not take --pq: its cells always run the Table I machine".into()
            )
        );
        assert!(reject_flags(&argv("--json --seed 1"), "serve", &["--sq", "--pq"]).is_ok());
    }

    #[test]
    fn bench_labels_resolve() {
        assert_eq!(parse_bench("queue"), Some(BenchmarkId::Queue));
        assert_eq!(parse_bench("no-such-bench"), None);
    }
}
