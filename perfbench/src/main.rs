//! End-to-end in situ benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload insitu-analysis --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload through the real `Bridge` pipelines on two
//! thread-backed ranks of one process, checks its outputs, prints a
//! table of every metric with unit and sample count, and ends with one
//! JSON line. `--trace 0` reports the end-to-end metrics of an untraced
//! run; `--trace 1` reports the per-layer metrics of a traced run
//! (against an untraced run of the same length, made in the same
//! process after a priming run) and writes its spans to
//! `perfbench/out/`. See
//! `perfbench/README.md` for the workloads and metrics.

mod common;
mod inputs;
mod insitu;
mod interactive;
mod intransit;
mod metrics;
mod procfs;
mod reference;
mod stats;
mod timed;
mod trace;

use std::process::ExitCode;

use common::{Checks, Mode, Params, WorldRun};
use metrics::Metric;

/// `setup_s` is the median over this many batches of set-up-only
/// worlds of each batch's fastest set-up. One set-up takes well under
/// a millisecond, and a thread that has to wake an idle core can take
/// several times that; the fastest of a batch is the set-up work
/// itself, which is what a change to set-up moves.
const SETUP_BATCHES: usize = 16;
/// Set-up-only worlds per batch.
const SETUP_BATCH: usize = 4;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    InsituAnalysis,
    InsituRender,
    IntransitStaging,
    InteractiveQuery,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::InsituAnalysis,
        Workload::InsituRender,
        Workload::IntransitStaging,
        Workload::InteractiveQuery,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::InsituAnalysis => "insitu-analysis",
            Workload::InsituRender => "insitu-render",
            Workload::IntransitStaging => "intransit-staging",
            Workload::InteractiveQuery => "interactive-query",
        }
    }

    fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn run(self, seed: u64, params: &Params, mode: Mode) -> WorldRun {
        let mut world = match self {
            Workload::InsituAnalysis => insitu::run(insitu::Kind::Analysis, seed, params, mode),
            Workload::InsituRender => insitu::run(insitu::Kind::Render, seed, params, mode),
            Workload::IntransitStaging => intransit::run(seed, params, mode),
            Workload::InteractiveQuery => interactive::run(seed, params, mode),
        };
        world.count_failure_reports();
        world
    }
}

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <insitu-analysis|insitu-render|\
intransit-staging|interactive-query> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("bad {what}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::from_name(&value).ok_or_else(|| bad("workload"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One workload's untraced run: the measured world first (so the
/// process's peak RSS is that world's), then the set-up-only worlds.
fn untraced(args: &Args, params: &Params) -> (Vec<Metric>, Checks, WorldRun) {
    let mut checks = Checks::default();
    let mut run = args.workload.run(
        args.seed,
        params,
        Mode::Measure {
            trace: false,
            seconds: args.seconds,
        },
    );
    let rss = procfs::vm_hwm_bytes();
    checks.absorb(std::mem::take(&mut run.checks));
    let mut setup = Vec::with_capacity(SETUP_BATCHES);
    for _ in 0..SETUP_BATCHES {
        let mut fastest = f64::INFINITY;
        for _ in 0..SETUP_BATCH {
            let w = args.workload.run(args.seed, params, Mode::SetupOnly);
            fastest = fastest.min(w.setup_s);
            checks.absorb(w.checks);
        }
        setup.push(fastest);
    }
    let metrics = metrics::end_to_end(&setup, &run, rss);
    (metrics, checks, run)
}

/// One workload's traced run: a priming world, then an untraced and a
/// traced world of half the length each; spans are written out at the
/// end.
fn traced(args: &Args, params: &Params) -> (Vec<Metric>, Checks, WorldRun) {
    let half = args.seconds / 2.0;
    let mut checks = Checks::default();
    // The first world of a process runs slower than later ones (its
    // threads grow the allocator's arenas); a short
    // priming world keeps that out of `trace.overhead_frac`.
    let prime = args.workload.run(
        args.seed,
        params,
        Mode::Measure {
            trace: false,
            seconds: 0.0,
        },
    );
    checks.absorb(prime.checks);
    let mut base = args.workload.run(
        args.seed,
        params,
        Mode::Measure {
            trace: false,
            seconds: half,
        },
    );
    checks.absorb(std::mem::take(&mut base.checks));
    let mut run = args.workload.run(
        args.seed,
        params,
        Mode::Measure {
            trace: true,
            seconds: half,
        },
    );
    checks.absorb(std::mem::take(&mut run.checks));
    let spans: Vec<trace::SpanRec> = run.ranks.iter().flat_map(|r| r.spans.clone()).collect();
    let path = std::path::Path::new("perfbench/out").join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all("perfbench/out").and_then(|()| {
        std::fs::write(
            &path,
            trace::to_json(args.workload.name(), args.seed, &spans),
        )
    });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    let metrics = metrics::per_layer(&base, &run, procfs::cpu_seconds(), procfs::vm_hwm_bytes());
    (metrics, checks, run)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let params = Params::full();
    let (metrics, mut checks, run) = if args.trace {
        traced(&args, &params)
    } else {
        untraced(&args, &params)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            checks.fail(format!("{} is not a number", m.name));
        }
    }
    let (user, sys) = procfs::cpu_seconds();
    let ctx = run
        .ranks
        .iter()
        .fold(procfs::CtxSwitches::default(), |a, r| a.plus(r.ctx));
    println!(
        "perfbench {} seed {} trace {}: {} timed steps in {:.3} s on {} ranks (nproc {})",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        run.step_times().len(),
        run.loop_wall_s(),
        common::RANKS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for m in metrics.iter().chain(&metrics::tails(&run)) {
        println!(
            "  {:<30} {:>16.6e} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "  {:<30} {:>16.6e} {:<6} {}/{}",
        "failed_frac",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        "frac",
        checks.failed,
        checks.attempted
    );
    println!(
        "  resources: VmHWM {} bytes, cpu user {user:.2} s sys {sys:.2} s, \
         timed-loop ctx switches vol {} invol {}",
        procfs::vm_hwm_bytes(),
        ctx.voluntary,
        ctx.involuntary
    );
    for note in &checks.notes {
        println!("  FAILED: {note}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = checks.failed == 0 && checks.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &probe::Json, key: &str) -> Vec<String> {
        json.get(key)
            .and_then(probe::Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(probe::Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// The metrics printed are exactly the ones `BENCHMARK.json` lists,
    /// in both modes, for every workload it names.
    #[test]
    fn printed_metrics_match_the_benchmark_file() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let json = probe::Json::parse(&text).expect("BENCHMARK.json parses");
        let empty = WorldRun::default();
        let e2e: Vec<&str> = metrics::end_to_end(&[0.1], &empty, 1)
            .iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        let layers: Vec<&str> = metrics::per_layer(&empty, &empty, (0.0, 0.0), 1)
            .iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names_in(&json, "per_layer"), layers);
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(probe::Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(probe::Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload insitu-render --seed 7 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::InsituRender);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(parse("--workload nope --seed 1 --seconds 1").is_err());
        assert!(parse("--workload insitu-render --seed 1 --seconds 0").is_err());
        assert!(parse("--workload insitu-render --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--seed 1 --seconds 1").is_err());
    }

    /// A tiny run of every workload passes its correctness checks.
    #[test]
    fn tiny_runs_pass_their_checks() {
        let params = Params::tiny();
        for w in Workload::ALL {
            for mode in [
                Mode::SetupOnly,
                Mode::Measure {
                    trace: false,
                    seconds: 0.05,
                },
                Mode::Measure {
                    trace: true,
                    seconds: 0.05,
                },
            ] {
                let run = w.run(3, &params, mode);
                assert_eq!(run.checks.failed, 0, "{}: {:?}", w.name(), run.checks.notes);
                if let Mode::Measure { trace, .. } = mode {
                    assert!(run.checks.attempted > 0, "{}", w.name());
                    assert!(run.step_times().len() >= params.min_steps as usize);
                    assert!(!run.lag_s.is_empty(), "{}", w.name());
                    assert!(run.lag_s.iter().all(|&l| l >= 0.0), "{}", w.name());
                    let spans: usize = run.ranks.iter().map(|r| r.spans.len()).sum();
                    assert_eq!(spans > 0, trace, "{}", w.name());
                    assert_eq!(!run.reports.is_empty(), trace, "{}", w.name());
                }
            }
        }
    }
}
