//! The run configuration shared by every experiment binary: one
//! [`RunConfig`], parsed once per process and passed by reference to the
//! harness ([`crate::harness::run_build`], [`crate::harness::run_queries`]),
//! the shared build options ([`crate::experiments::default_options`]) and
//! the experiments.

use crate::experiments::ExperimentScale;
use hydra_core::{AnswerMode, Budget, Parallelism};
use hydra_serve::QuorumPolicy;
use std::path::PathBuf;

/// Every setting of one experiment run.
///
/// Each field is set from its flag (`--x v` or `--x=v`), else from its
/// environment variable (an empty one counts as unset), else from its
/// default. A missing or invalid value is a typed [`ConfigError`]; the
/// binaries report it and exit with status 2, because a silent fallback
/// would record results under the wrong configuration.
///
/// | field | flag | variable | default | meaning |
/// |-------|------|----------|---------|---------|
/// | `threads` | `--threads N` | `HYDRA_THREADS` | serial | worker threads for query workloads *and* index builds; `0` = one per CPU |
/// | `index_dir` | `--index-dir DIR` | `HYDRA_INDEX_DIR` | none | snapshot directory: valid snapshots are loaded instead of rebuilt, fresh builds are saved |
/// | `mode` | `--mode M` | `HYDRA_MODE` | `exact` | answering mode: `exact`, `ng`, `eps:<v>` or `deltaeps:<d>,<e>`; methods that cannot answer it fail with a typed `UnsupportedMode` |
/// | `batch` | `--batch N` | `HYDRA_BATCH` | `0` | query-batch size for `QueryEngine::answer_batch`; `0` = per-query loop |
/// | `fault_seed` | `--fault-seed N` | `HYDRA_FAULT_SEED` | `0` | seeded [`hydra_storage::FaultPlan`] on the store, with a recovering retry policy; `0` = fault-free |
/// | `budget` | `--budget B` | `HYDRA_BUDGET` | `inf` | per-query raw-read budget; exhausted queries return best-so-far answers tagged `Guarantee::Truncated` |
/// | `shards` | `--shards N` | `HYDRA_SHARDS` | ladder | `bench_serve`'s shard count (≥ 1) in place of its shard ladder |
/// | `deadline_ms` | `--deadline-ms D` | `HYDRA_DEADLINE_MS` | ladder | `bench_serve`'s request deadline in place of its deadline ladder; `0` skips the deadline lane |
/// | `quorum` | `--quorum Q` | `HYDRA_QUORUM` | lane default | `bench_serve`'s chaos-lane quorum policy: `all`, `best-effort` or a shard count |
/// | `shard_fault_seed` | `--shard-fault-seed N` | `HYDRA_SHARD_FAULT_SEED` | lane default | `bench_serve`'s chaos-lane per-shard fault seed; `0` = fault-free |
/// | `scale` | — | `HYDRA_SCALE` | `small` | dataset sizes: `smoke`, `small` or `full` (see [`ExperimentScale`]) |
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    /// Worker threads for query workloads and index builds.
    pub threads: Parallelism,
    /// The snapshot directory index builds load from and save to.
    pub index_dir: Option<PathBuf>,
    /// The answering mode of query workloads.
    pub mode: AnswerMode,
    /// The query-batch size (`0` = per-query loop).
    pub batch: usize,
    /// The store's fault-injection seed (`0` = fault-free).
    pub fault_seed: u64,
    /// The per-query raw-read budget (`None` = unbudgeted).
    pub budget: Option<Budget>,
    /// `bench_serve`'s shard count (`None` = its shard ladder).
    pub shards: Option<usize>,
    /// `bench_serve`'s deadline in ms (`None` = its ladder, `Some(0)` = none).
    pub deadline_ms: Option<u64>,
    /// `bench_serve`'s chaos-lane quorum policy (`None` = the lane default).
    pub quorum: Option<QuorumPolicy>,
    /// `bench_serve`'s chaos-lane fault seed (`None` = the lane default).
    pub shard_fault_seed: Option<u64>,
    /// The experiment dataset sizes.
    pub scale: ExperimentScale,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            threads: Parallelism::Serial,
            index_dir: None,
            mode: AnswerMode::Exact,
            batch: 0,
            fault_seed: 0,
            budget: None,
            shards: None,
            deadline_ms: None,
            quorum: None,
            shard_fault_seed: None,
            scale: ExperimentScale::small(),
        }
    }
}

/// A setting given a missing or invalid value.
#[derive(Debug)]
pub struct ConfigError {
    /// Where the value came from: the flag (`--threads`) or the variable
    /// (`HYDRA_THREADS`).
    pub source: String,
    /// The value as given (empty when a flag has none).
    pub value: String,
    /// What the setting accepts.
    pub expected: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {} value {:?} (expected {})",
            self.source, self.value, self.expected
        )
    }
}

/// One settable value: its flag (if any), its variable, what it accepts and
/// how a trimmed value is stored (`None` rejects it).
struct Setting {
    flag: Option<&'static str>,
    env: &'static str,
    expected: &'static str,
    apply: fn(&mut RunConfig, &str) -> Option<()>,
}

const SETTINGS: [Setting; 11] = [
    Setting {
        flag: Some("--threads"),
        env: "HYDRA_THREADS",
        expected: "a number; 0 = one worker per CPU",
        apply: |c, v| {
            v.parse().ok().map(|n| {
                c.threads = match n {
                    0 => Parallelism::Auto,
                    1 => Parallelism::Serial,
                    n => Parallelism::Threads(n),
                }
            })
        },
    },
    Setting {
        flag: Some("--index-dir"),
        env: "HYDRA_INDEX_DIR",
        expected: "a directory path",
        apply: |c, v| (!v.is_empty()).then(|| c.index_dir = Some(v.into())),
    },
    Setting {
        flag: Some("--mode"),
        env: "HYDRA_MODE",
        expected: "exact | ng | eps:<v> | deltaeps:<d>,<e>",
        apply: |c, v| AnswerMode::parse(v).ok().map(|mode| c.mode = mode),
    },
    Setting {
        flag: Some("--batch"),
        env: "HYDRA_BATCH",
        expected: "a number; 0 = per-query execution",
        apply: |c, v| v.parse().ok().map(|n| c.batch = n),
    },
    Setting {
        flag: Some("--fault-seed"),
        env: "HYDRA_FAULT_SEED",
        expected: "a number; 0 = no faults",
        apply: |c, v| v.parse().ok().map(|seed| c.fault_seed = seed),
    },
    Setting {
        flag: Some("--budget"),
        env: "HYDRA_BUDGET",
        expected: "`inf` or a raw-read count",
        apply: |c, v| Budget::parse(v).ok().map(|budget| c.budget = budget),
    },
    Setting {
        flag: Some("--shards"),
        env: "HYDRA_SHARDS",
        expected: "a shard count >= 1",
        apply: |c, v| {
            v.parse()
                .ok()
                .filter(|&n| n >= 1)
                .map(|n| c.shards = Some(n))
        },
    },
    Setting {
        flag: Some("--deadline-ms"),
        env: "HYDRA_DEADLINE_MS",
        expected: "milliseconds; 0 = none",
        apply: |c, v| v.parse().ok().map(|ms| c.deadline_ms = Some(ms)),
    },
    Setting {
        flag: Some("--quorum"),
        env: "HYDRA_QUORUM",
        expected: "`all`, `best-effort`, or a shard count >= 1",
        apply: |c, v| QuorumPolicy::parse(v).ok().map(|q| c.quorum = Some(q)),
    },
    Setting {
        flag: Some("--shard-fault-seed"),
        env: "HYDRA_SHARD_FAULT_SEED",
        expected: "a number; 0 = no faults",
        apply: |c, v| v.parse().ok().map(|seed| c.shard_fault_seed = Some(seed)),
    },
    Setting {
        flag: None,
        env: "HYDRA_SCALE",
        expected: "smoke | small | full",
        apply: |c, v| ExperimentScale::parse(v).map(|scale| c.scale = scale),
    },
];

impl RunConfig {
    /// Parses every setting from `args` (the flags), then `env` (the
    /// variables), then the defaults. Unknown arguments are ignored, so
    /// binaries can take flags of their own.
    pub fn parse(
        args: &[String],
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<Self, ConfigError> {
        let mut config = Self::default();
        for setting in &SETTINGS {
            let given = setting
                .flag
                .and_then(|flag| Some((flag.to_string(), flag_value(args, flag)?)))
                .or_else(|| {
                    let value = env(setting.env).filter(|v| !v.trim().is_empty())?;
                    Some((setting.env.to_string(), value))
                });
            if let Some((source, value)) = given {
                if (setting.apply)(&mut config, value.trim()).is_none() {
                    return Err(ConfigError {
                        source,
                        value,
                        expected: setting.expected,
                    });
                }
            }
        }
        Ok(config)
    }

    /// The configuration of this process: its arguments, then its
    /// environment. Reports an invalid value and exits with status 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::parse(&args, |name| std::env::var(name).ok()).unwrap_or_else(|e| exit_invalid(&e))
    }

    /// The configuration the environment alone sets (for tests and library
    /// callers without flags). Reports an invalid value and exits with
    /// status 2.
    pub fn from_env() -> Self {
        Self::parse(&[], |name| std::env::var(name).ok()).unwrap_or_else(|e| exit_invalid(&e))
    }
}

fn exit_invalid(error: &ConfigError) -> ! {
    eprintln!("error: {error}");
    std::process::exit(2)
}

/// The value given to `flag` (`flag v` or `flag=v`; the first occurrence
/// wins), empty when the flag ends the argument list, `None` when absent.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().enumerate().find_map(|(i, arg)| {
        if arg == flag {
            Some(args.get(i + 1).cloned().unwrap_or_default())
        } else {
            arg.strip_prefix(flag)?
                .strip_prefix('=')
                .map(str::to_string)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One parse case: the setting it exercises, the arguments, the
    /// environment, and the expected configuration or the source of the
    /// expected error.
    type Case = (
        &'static str,
        &'static [&'static str],
        &'static [(&'static str, &'static str)],
        Result<RunConfig, &'static str>,
    );

    fn with(f: impl FnOnce(&mut RunConfig)) -> Result<RunConfig, &'static str> {
        let mut config = RunConfig::default();
        f(&mut config);
        Ok(config)
    }

    #[rustfmt::skip]
    fn cases() -> Vec<Case> {
        let deltaeps = AnswerMode::DeltaEpsilon {
            delta: 0.9,
            epsilon: 0.25,
        };
        vec![
            // Unset falls back to the default.
            ("all", &[], &[], Ok(RunConfig::default())),
            ("all", &["--verbose", "x"], &[("HYDRA_MODE", " ")], Ok(RunConfig::default())),
            // `--x v` and `--x=v`; a flag beats the environment.
            ("threads", &["--threads", "4"], &[], with(|c| c.threads = Parallelism::Threads(4))),
            ("threads", &["--threads=8"], &[], with(|c| c.threads = Parallelism::Threads(8))),
            ("threads", &["--threads", "0"], &[], with(|c| c.threads = Parallelism::Auto)),
            ("threads", &["--threads=1"], &[("HYDRA_THREADS", "4")], Ok(RunConfig::default())),
            ("threads", &[], &[("HYDRA_THREADS", "4")], with(|c| c.threads = Parallelism::Threads(4))),
            ("threads", &["--threads"], &[], Err("--threads")),
            ("threads", &["--threads", "lots"], &[], Err("--threads")),
            ("threads", &["--threads="], &[], Err("--threads")),
            ("threads", &[], &[("HYDRA_THREADS", "lots")], Err("HYDRA_THREADS")),
            ("index-dir", &["--index-dir", "snapshots"], &[], with(|c| c.index_dir = Some("snapshots".into()))),
            ("index-dir", &["--index-dir=/tmp/idx"], &[("HYDRA_INDEX_DIR", "env")], with(|c| c.index_dir = Some("/tmp/idx".into()))),
            ("index-dir", &[], &[("HYDRA_INDEX_DIR", "env")], with(|c| c.index_dir = Some("env".into()))),
            ("index-dir", &["--index-dir"], &[], Err("--index-dir")),
            ("index-dir", &["--index-dir="], &[], Err("--index-dir")),
            ("mode", &["--mode", "ng"], &[], with(|c| c.mode = AnswerMode::NgApproximate)),
            ("mode", &["--mode=eps:0.1"], &[], with(|c| c.mode = AnswerMode::EpsilonApproximate { epsilon: 0.1 })),
            ("mode", &["--mode", "deltaeps:0.9,0.25"], &[], with(|c| c.mode = deltaeps)),
            ("mode", &[], &[("HYDRA_MODE", "ng")], with(|c| c.mode = AnswerMode::NgApproximate)),
            ("mode", &["--mode", "sloppy"], &[], Err("--mode")),
            ("mode", &["--mode", "eps:-1"], &[], Err("--mode")),
            ("mode", &["--mode"], &[], Err("--mode")),
            ("mode", &[], &[("HYDRA_MODE", "sloppy")], Err("HYDRA_MODE")),
            ("batch", &["--batch", "64"], &[], with(|c| c.batch = 64)),
            ("batch", &["--batch=8"], &[("HYDRA_BATCH", "2")], with(|c| c.batch = 8)),
            ("batch", &["--batch", "0"], &[], Ok(RunConfig::default())),
            ("batch", &["--batch"], &[], Err("--batch")),
            ("batch", &["--batch", "many"], &[], Err("--batch")),
            ("fault-seed", &["--fault-seed", "42"], &[], with(|c| c.fault_seed = 42)),
            ("fault-seed", &["--fault-seed=7"], &[], with(|c| c.fault_seed = 7)),
            ("fault-seed", &[], &[("HYDRA_FAULT_SEED", "9")], with(|c| c.fault_seed = 9)),
            ("fault-seed", &["--fault-seed", "chaos"], &[], Err("--fault-seed")),
            ("fault-seed", &["--fault-seed"], &[], Err("--fault-seed")),
            ("budget", &["--budget", "500"], &[], with(|c| c.budget = Some(Budget::raw_reads(500)))),
            ("budget", &["--budget=inf"], &[("HYDRA_BUDGET", "5")], Ok(RunConfig::default())),
            ("budget", &["--budget", "soon"], &[], Err("--budget")),
            ("budget", &["--budget"], &[], Err("--budget")),
            ("shards", &["--shards", "4"], &[], with(|c| c.shards = Some(4))),
            ("shards", &["--shards=2"], &[], with(|c| c.shards = Some(2))),
            ("shards", &["--shards", "0"], &[], Err("--shards")),
            ("shards", &["--shards", "many"], &[], Err("--shards")),
            ("shards", &["--shards"], &[], Err("--shards")),
            ("shards", &[], &[("HYDRA_SHARDS", "0")], Err("HYDRA_SHARDS")),
            ("deadline-ms", &["--deadline-ms", "250"], &[], with(|c| c.deadline_ms = Some(250))),
            ("deadline-ms", &["--deadline-ms=0"], &[], with(|c| c.deadline_ms = Some(0))),
            ("deadline-ms", &["--deadline-ms", "soon"], &[], Err("--deadline-ms")),
            ("deadline-ms", &["--deadline-ms"], &[], Err("--deadline-ms")),
            ("quorum", &["--quorum", "all"], &[], with(|c| c.quorum = Some(QuorumPolicy::AllShards))),
            ("quorum", &["--quorum=best-effort"], &[], with(|c| c.quorum = Some(QuorumPolicy::BestEffort))),
            ("quorum", &["--quorum", "2"], &[], with(|c| c.quorum = Some(QuorumPolicy::AtLeast(2)))),
            ("quorum", &["--quorum", "0"], &[], Err("--quorum")),
            ("quorum", &["--quorum", "most"], &[], Err("--quorum")),
            ("quorum", &["--quorum"], &[], Err("--quorum")),
            ("shard-fault-seed", &["--shard-fault-seed", "42"], &[], with(|c| c.shard_fault_seed = Some(42))),
            ("shard-fault-seed", &["--shard-fault-seed=7"], &[], with(|c| c.shard_fault_seed = Some(7))),
            ("shard-fault-seed", &["--shard-fault-seed", "chaos"], &[], Err("--shard-fault-seed")),
            ("shard-fault-seed", &["--shard-fault-seed"], &[], Err("--shard-fault-seed")),
            ("all", &[], &[("HYDRA_SCALE", "smoke")], with(|c| c.scale = ExperimentScale::smoke())),
            ("all", &[], &[("HYDRA_SCALE", "huge")], Err("HYDRA_SCALE")),
        ]
    }

    /// Runs the cases of `setting` (every case for `"all"`).
    fn check(setting: &str) {
        for (name, args, env, expected) in cases() {
            if setting != "all" && setting != name {
                continue;
            }
            let args: Vec<String> = std::iter::once("bin")
                .chain(args.iter().copied())
                .map(String::from)
                .collect();
            let lookup = |key: &str| {
                env.iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| v.to_string())
            };
            let parsed = RunConfig::parse(&args, lookup).map_err(|e| {
                assert!(e.to_string().contains(e.expected), "{e}");
                e.source
            });
            assert_eq!(parsed, expected.map_err(String::from), "{args:?} {env:?}");
        }
    }

    #[test]
    fn parses_separate_and_joined_forms() {
        check("all");
    }

    #[test]
    fn missing_or_malformed_values_are_reported_not_ignored() {
        check("threads");
    }

    #[test]
    fn parses_index_dir_forms() {
        check("index-dir");
    }

    #[test]
    fn parses_mode_forms() {
        check("mode");
    }

    #[test]
    fn parses_batch_forms() {
        check("batch");
    }

    #[test]
    fn parses_fault_seed_forms() {
        check("fault-seed");
    }

    #[test]
    fn parses_budget_forms() {
        check("budget");
    }

    #[test]
    fn parses_shards_forms() {
        check("shards");
    }

    #[test]
    fn parses_deadline_ms_forms() {
        check("deadline-ms");
    }

    #[test]
    fn parses_quorum_forms() {
        check("quorum");
    }

    #[test]
    fn parses_shard_fault_seed_forms() {
        check("shard-fault-seed");
    }
}
