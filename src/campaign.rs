//! The campaign harness `fault_campaign` and `serving_tail` stand on
//! (DESIGN.md §14): a seeded campaign is a command line
//! ([`Cli`]), a pass run twice and compared row by row ([`two_pass`]),
//! gates that decide the exit code and whether the run's speed is
//! archived ([`Gates`]), and — where it plants memory bit-flips — one
//! planner and one sweep ([`flip_plan`], [`sweep`]).  A new campaign is
//! a table of rows in its own bin walked by one runner, handed to
//! `two_pass`; nothing here is typed out again.

use crate::{record_sim_speed, SimSpeed};
use faultgen::rng::SplitMix64;
use faultgen::{FaultSpec, FaultTarget};
use mercury_cluster::Watchdog;
use simx86::{Machine, PhysAddr};
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::process::ExitCode;

/// How much a campaign runs.  The discriminants index the bins' sizing
/// tables, which list their columns in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// `--quick`: the CI smoke — same shapes, a few times cheaper.
    Quick,
    /// No flag: the size the root archives are regenerated at.
    Full,
    /// `--campaign`: the nightly size (EXPERIMENTS.md "Campaign scale").
    Campaign,
}

impl Size {
    /// `quick`, `full` or `campaign`.
    pub fn label(self) -> &'static str {
        match self {
            Size::Quick => "quick",
            Size::Full => "full",
            Size::Campaign => "campaign",
        }
    }
}

/// A campaign bin's command line: `[--seed N] [--quick | --campaign]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cli {
    /// The seed every draw of the run derives from.
    pub seed: u64,
    /// The one sizing choice.
    pub size: Size,
}

impl Cli {
    /// Parse `args` (without the program name); `Err` says what was
    /// wrong with them.
    pub fn parse(default_seed: u64, args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            seed: default_seed,
            size: Size::Full,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--seed" => {
                    let n = args.next().and_then(|v| v.parse().ok());
                    cli.seed = n.ok_or("--seed takes an integer")?;
                }
                "--quick" | "--campaign" if cli.size != Size::Full => {
                    return Err("at most one of --quick and --campaign".to_string());
                }
                "--quick" => cli.size = Size::Quick,
                "--campaign" => cli.size = Size::Campaign,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(cli)
    }

    /// The process's own command line, or one usage line and exit 2.
    pub fn from_env(bin: &str, default_seed: u64) -> Cli {
        Cli::parse(default_seed, std::env::args().skip(1)).unwrap_or_else(|why| {
            eprintln!("usage: {bin} [--seed N] [--quick | --campaign]  ({why})");
            std::process::exit(2)
        })
    }
}

/// What [`two_pass`] hands back.
pub struct TwoPass<T> {
    /// The first pass: what gets reported and archived.
    pub first: T,
    /// Host seconds the first pass took.
    pub host_seconds: f64,
    /// Where the second pass first differed from the first, if it did.
    pub divergence: Option<String>,
}

impl<T> TwoPass<T> {
    /// The archives' `"determinism"` value.
    pub fn determinism(&self) -> &'static str {
        match self.divergence {
            None => "verified",
            Some(_) => "FAILED",
        }
    }
}

/// The determinism gate (DESIGN.md §14): run `pass` twice on the same
/// seed; `diff` names the first row in which the two results differ —
/// chain [`first_difference`] over the result's row lists.
pub fn two_pass<T>(
    mut pass: impl FnMut() -> T,
    diff: impl Fn(&T, &T) -> Option<String>,
) -> TwoPass<T> {
    let started = std::time::Instant::now();
    let first = pass();
    let host_seconds = started.elapsed().as_secs_f64();
    let divergence = diff(&first, &pass());
    TwoPass {
        first,
        host_seconds,
        divergence,
    }
}

/// `label[k]` with both values, for the first `k` at which the two
/// passes' rows differ (a row only one pass has differs from nothing).
pub fn first_difference<R: PartialEq + Debug>(label: &str, a: &[R], b: &[R]) -> Option<String> {
    let differs = a.iter().zip(b).position(|(x, y)| x != y);
    let k = differs.or((a.len() != b.len()).then_some(a.len().min(b.len())))?;
    let show = |rows: &[R]| {
        rows.get(k)
            .map_or("nothing".to_string(), |r| format!("{r:?}"))
    };
    Some(format!(
        "{label}[{k}]: pass 1 has {}, pass 2 has {}",
        show(a),
        show(b)
    ))
}

/// A run's failed gates.
#[derive(Default)]
pub struct Gates(Vec<String>);

impl Gates {
    /// Note `why` as a failure.
    pub fn fail(&mut self, why: String) {
        self.0.push(why);
    }

    /// Note `why` as a failure when `bad`.
    pub fn fail_if(&mut self, bad: bool, why: String) {
        self.0.extend(bad.then_some(why));
    }

    /// The determinism gate: `run`'s two passes must not have differed.
    pub fn determinism<T>(&mut self, run: &TwoPass<T>) {
        let diverged = |at| format!("two same-seed passes diverged at {at}");
        self.0.extend(run.divergence.iter().map(diverged));
    }

    /// Print every failure as a `FAIL:` line.  A run that passed every
    /// gate — and only such a run — archives `speed` under its suite in
    /// `sim_speed.json`; a failed one exits 1 with the file untouched.
    pub fn finish(self, speed: Option<(&str, SimSpeed)>) -> ExitCode {
        for why in &self.0 {
            eprintln!("FAIL: {why}");
        }
        if !self.0.is_empty() {
            return ExitCode::FAILURE;
        }
        if let Some((suite, speed)) = speed {
            record_sim_speed(suite, &speed);
        }
        ExitCode::SUCCESS
    }
}

/// `n` memory bit-flips with ids from `first_id`, in the scrubber's
/// sweep window (the top 1 000 frames of the 16 Ki-frame machine), no
/// two in one word, so each sweep read trips exactly one.
pub fn flip_plan(rng: &mut SplitMix64, first_id: u64, n: u64) -> Vec<FaultSpec> {
    let mut used = BTreeSet::new();
    (0..n)
        .map(|i| {
            let (frame, word) = loop {
                let f = 15_000 + rng.below(1_000) as u32;
                let w = rng.below(512) as u16;
                if used.insert((f, w)) {
                    break (f, w);
                }
            };
            let bit = rng.below(64) as u8;
            FaultSpec {
                id: first_id + i,
                due_cycle: 0,
                target: FaultTarget::MemWord { frame, word, bit },
            }
        })
        .collect()
}

/// The scrubber's read over a planted flip, from the boot CPU: the
/// flip's word and the `span - 1` words after it in the frame.
pub fn sweep(machine: &Machine, spec: &FaultSpec, span: u16) {
    let FaultTarget::MemWord { frame, word, .. } = spec.target else {
        panic!("the sweep reads planted MemWord faults only")
    };
    for w in (word..word + span).map(|w| w % 512) {
        let pa = PhysAddr(((frame as u64) << 12) + (w as u64) * 8);
        let read = machine.mem.read_word(machine.boot_cpu(), pa);
        read.expect("sweep read");
    }
}

/// Arm one planted flip, trip it with the sweep read that would find
/// it, and let the watchdog answer.
pub fn plant_and_sweep(machine: &Machine, dog: &mut Watchdog, spec: FaultSpec) {
    faultgen::arm(vec![spec]);
    sweep(machine, &spec, 1);
    dog.poll(machine.boot_cpu());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(7, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn cli_takes_a_seed_and_one_of_three_sizes() {
        let sized = |size| Cli { seed: 7, size };
        assert_eq!(parse(&[]), Ok(sized(Size::Full)));
        assert_eq!(parse(&["--quick"]), Ok(sized(Size::Quick)));
        assert_eq!(parse(&["--campaign"]), Ok(sized(Size::Campaign)));
        let seeded = Cli {
            seed: 11,
            size: Size::Quick,
        };
        assert_eq!(parse(&["--quick", "--seed", "11"]), Ok(seeded));
    }

    #[test]
    fn cli_rejects_a_bare_seed_an_unknown_flag_and_two_sizes() {
        for bad in [
            &["--seed"][..],
            &["--seed", "seven"],
            &["--fast"],
            &["--quick", "--campaign"],
            &["--campaign", "--quick"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn two_pass_names_the_first_differing_row() {
        let diff = |a: &Vec<u64>, b: &Vec<u64>| first_difference("rows", a, b);
        let mut calls = 0;
        let flaky = two_pass(
            || {
                calls += 1;
                // The second call differs in rows 3 and 5.
                (0..8)
                    .map(|k| k * 10 + (calls == 2 && k % 2 == 1 && k > 2) as u64)
                    .collect()
            },
            diff,
        );
        assert_eq!(flaky.first, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        let at = "rows[3]: pass 1 has 30, pass 2 has 31";
        assert_eq!(flaky.divergence.as_deref(), Some(at));
        assert_eq!(flaky.determinism(), "FAILED");

        let steady = two_pass(|| vec![1, 2, 3], diff);
        assert_eq!(steady.divergence, None);
        assert_eq!(steady.determinism(), "verified");

        // A pass that stops early differs where it stopped.
        let short = first_difference("rows", &[1, 2, 3], &[1, 2]);
        assert_eq!(short.unwrap(), "rows[2]: pass 1 has 3, pass 2 has nothing");
    }

    /// Pinned against the loop `fault_campaign` typed inline before the
    /// planner was shared (seed 7, its first scenario's ids).
    #[test]
    fn flip_plan_draws_what_the_inline_planner_drew() {
        let plan = flip_plan(&mut SplitMix64::new(7), 1_000, 600);
        let flips: Vec<(u64, u32, u16, u8)> = plan
            .iter()
            .map(|spec| match spec.target {
                FaultTarget::MemWord { frame, word, bit } => (spec.id, frame, word, bit),
                other => panic!("not a flip: {other:?}"),
            })
            .collect();
        assert_eq!(
            flips[..4],
            [
                (1_000, 15_389, 8, 57),
                (1_001, 15_582, 231, 15),
                (1_002, 15_467, 167, 8),
                (1_003, 15_413, 53, 61),
            ]
        );
        assert!(flips.iter().map(|f| f.0).eq(1_000..1_600));
        let words: BTreeSet<(u32, u16)> = flips.iter().map(|f| (f.1, f.2)).collect();
        assert_eq!(words.len(), flips.len(), "two flips planted in one word");
    }

    /// A run that fails a gate must not re-archive its speed.
    #[test]
    fn a_failed_gate_leaves_sim_speed_json_untouched() {
        let dir = std::env::temp_dir().join(format!("campaign-gates-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The archive is written to the working directory, which is
        // process-wide: no other test in this test binary (the unit tests
        // of `mercury_suite`'s lib, `src/lib.rs` and `src/campaign.rs`)
        // reads or writes a relative path.
        let home = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let archived = "{\n  \"faultgen\": {\"host_seconds\": 1.0, \"mcycles_per_host_second\": 2.0, \"sim_mcycles\": 2.0}\n}\n";
        std::fs::write("sim_speed.json", archived).unwrap();
        let speed = || SimSpeed {
            sim_mcycles: 9.0,
            host_seconds: 3.0,
        };

        let diverged = two_pass(|| vec![0], |_, _| Some("faults[0]: …".to_string()));
        let mut failed = Gates::default();
        failed.determinism(&diverged);
        assert_eq!(
            failed.finish(Some(("faultgen", speed()))),
            ExitCode::FAILURE
        );
        assert_eq!(std::fs::read_to_string("sim_speed.json").unwrap(), archived);

        let mut shape = Gates::default();
        shape.fail_if(false, "holds".to_string());
        shape.fail_if(true, "no fault was recovered".to_string());
        assert_eq!(shape.finish(Some(("faultgen", speed()))), ExitCode::FAILURE);
        assert_eq!(std::fs::read_to_string("sim_speed.json").unwrap(), archived);

        let mut passed = Gates::default();
        passed.determinism(&two_pass(|| vec![0], |_, _| None));
        assert_eq!(
            passed.finish(Some(("faultgen", speed()))),
            ExitCode::SUCCESS
        );
        let rewritten = std::fs::read_to_string("sim_speed.json").unwrap();
        assert!(rewritten.contains("\"sim_mcycles\": 9.0"), "{rewritten}");
        std::env::set_current_dir(home).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
