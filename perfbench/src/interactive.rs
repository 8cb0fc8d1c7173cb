//! The `interactive-query` workload: a `QueryServer` on the bridge of
//! [`RANKS`] ranks serves the seeded client mix every boundary; rank 0
//! polls every boundary, and seeded steering pauses, refines and
//! retargets the run.

use std::sync::Arc;
use std::time::Instant;

use minimpi::{Comm, World};
use oscillator::{OscillatorAdaptor, SimConfig, Simulation};
use query::{Action, QueryConfig, QueryServer, SessionScript};
use sensei::Bridge;

use crate::common::{drive, Checks, Mode, Params, RankRun, Side, StepRec, WorldRun, RANKS};
use crate::trace::{lock, Tracer};

/// Bridge boundaries the seeded script steers; a longer run goes on
/// without further steering.
const SCRIPT_BOUNDARIES: u64 = 25_000;

/// One poll on rank 0: at which boundary, when it returned, and how
/// many responses it delivered.
#[derive(Clone, Copy)]
struct Poll {
    boundary: u64,
    at: f64,
    delivered: usize,
}

/// Rank 0's session record.
#[derive(Default)]
struct Session {
    polls: Vec<Poll>,
    /// Per boundary: did the server evaluate queries (not paused)?
    evaluated: Vec<bool>,
    log: String,
    retargets_refused: u64,
}

/// Run one world of the interactive workload.
pub fn run(seed: u64, params: &Params, mode: Mode) -> WorldRun {
    let deck = crate::inputs::deck(seed);
    let script = Arc::new(crate::inputs::session_script(seed, SCRIPT_BOUNDARIES));
    let clients = registered_clients(&script);
    let p = params.clone();
    let epoch = Instant::now();
    let outs = World::run(RANKS, move |comm| {
        rank_main(comm, &deck, &script, &p, mode, epoch)
    });
    let mut world = WorldRun::default();
    let mut session = None;
    for (run, ready, report, s) in outs {
        world.setup_s = world.setup_s.max(ready);
        world.reports.extend(report.map(|r| (Side::Step, r)));
        if run.rank == 0 {
            session = Some(s);
        }
        world.ranks.push(run);
    }
    let session = session.expect("rank 0 session");
    if matches!(mode, Mode::Measure { .. }) {
        let timed = world.ranks[0].steps.clone();
        let checks = check_session(&session, &timed, &clients, params, &mut world.lag_s);
        world.checks.absorb(checks);
    }
    world
}

/// Client ids the script registers (all at boundary 0).
fn registered_clients(script: &SessionScript) -> Vec<u64> {
    script
        .commands()
        .iter()
        .filter(|c| matches!(c.action, Action::Register(_)))
        .map(|c| c.client)
        .collect()
}

type RankOut = (RankRun, f64, Option<probe::RunReport>, Session);

fn rank_main(
    comm: &Comm,
    deck: &str,
    script: &Arc<SessionScript>,
    params: &Params,
    mode: Mode,
    epoch: Instant,
) -> RankOut {
    let tracer = Tracer::shared(epoch, comm.rank());
    let cfg = SimConfig {
        grid: [params.grid; 3],
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(comm, cfg, (comm.rank() == 0).then_some(deck));
    let mut bridge = Bridge::new();
    if mode.trace() {
        let p = probe::enabled();
        comm.attach_probe(p.clone());
        bridge.set_probe(p);
    }
    let server = QueryServer::new(Arc::clone(script), QueryConfig::default());
    let handle = server.handle();
    bridge.register(Box::new(crate::timed::Timed::new(
        server,
        "query.server",
        &tracer,
    )));
    comm.barrier();
    let ready = lock(&tracer).now();
    let root = comm.rank() == 0;
    let mut session = Session::default();

    let mut step = |b: u64| -> StepRec {
        // A paused session holds the simulation but keeps executing
        // boundaries, so the resume command stays reachable.
        let stepping = !handle.paused();
        let open = {
            let mut t = lock(&tracer);
            t.set_step(b);
            t.open("step")
        };
        let mut solve_s = 0.0;
        let data_ready = if stepping {
            let solve = lock(&tracer).open("oscillator.step");
            sim.step(comm);
            let end = lock(&tracer).close(solve);
            solve_s = end - solve.start;
            end
        } else {
            open.start
        };
        let exec = lock(&tracer).open("sensei.execute");
        bridge.execute(&OscillatorAdaptor::new(&sim), comm);
        lock(&tracer).close(exec);
        session.evaluated.push(!handle.paused());
        // Write-back steering, applied identically on every rank.
        for r in handle.take_retargets() {
            if !sim.retarget_oscillator(r.oscillator, r.center, r.omega) {
                session.retargets_refused += 1;
            }
        }
        if root {
            let poll = lock(&tracer).open("query.poll");
            let delivered = handle.poll_all();
            let at = lock(&tracer).close(poll);
            session.polls.push(Poll {
                boundary: b,
                at,
                delivered,
            });
        }
        let end = lock(&tracer).close(open);
        StepRec {
            boundary: b,
            start: open.start,
            data_ready,
            end,
            solve_s,
        }
    };
    let mut run = RankRun {
        rank: comm.rank(),
        stepping: true,
        ..RankRun::default()
    };
    match mode {
        Mode::SetupOnly => {}
        Mode::Measure { trace, seconds } => {
            (run.steps, run.ctx) = drive(comm, params, seconds, &tracer, trace, &mut step);
        }
    }
    let report = bridge.finalize(comm);
    run.failures = bridge.failure_reports().len() as u64;
    run.spans = lock(&tracer).take_spans();
    if root {
        session.log = handle.session_log();
    }
    (
        run,
        ready,
        (mode.trace() && root).then_some(report),
        session,
    )
}

/// One response line of the session log.
struct Response {
    client: u64,
    step: u64,
    summary_count: Option<u64>,
}

fn parse_response(line: &str) -> Option<Response> {
    let json = probe::Json::parse(&line[line.find('{')?..]).ok()?;
    let payload = json.get("payload")?;
    let summary_count = (payload.get("kind")?.as_str()? == "summary")
        .then(|| payload.get("count").and_then(probe::Json::as_u64))
        .flatten();
    Some(Response {
        client: json.get("client")?.as_u64()?,
        step: json.get("step")?.as_u64()?,
        summary_count,
    })
}

/// Check every timed, unpaused boundary gave each client exactly one
/// response, and each summary counted every non-ghost point; collect
/// time to insight per response.
fn check_session(
    session: &Session,
    timed: &[StepRec],
    clients: &[u64],
    params: &Params,
    lag_s: &mut Vec<f64>,
) -> Checks {
    let mut checks = Checks::default();
    let (Some(first), Some(last)) = (timed.first(), timed.last()) else {
        return checks;
    };
    let (first, last) = (first.boundary, last.boundary);
    let mut lines = session.log.lines();
    let mut got: Vec<Vec<u64>> = vec![Vec::new(); (last - first + 1) as usize];
    for poll in &session.polls {
        for _ in 0..poll.delivered {
            let parsed = lines.next().and_then(parse_response);
            if poll.boundary < first || poll.boundary > last {
                continue;
            }
            let Some(r) = parsed else {
                checks.fail(format!("poll at {}: unreadable response", poll.boundary));
                continue;
            };
            if r.step < first || r.step > last {
                checks.fail(format!(
                    "poll at {}: response for step {}",
                    poll.boundary, r.step
                ));
                continue;
            }
            lag_s.push(poll.at - timed[(r.step - first) as usize].data_ready);
            got[(r.step - first) as usize].push(r.client);
            if let Some(n) = r.summary_count {
                checks.check(n == params.points(), || {
                    format!("step {}: summary counted {n} points", r.step)
                });
            }
        }
    }
    for (i, responders) in got.into_iter().enumerate() {
        let b = first + i as u64;
        if !session.evaluated[b as usize] {
            checks.check(responders.is_empty(), || {
                format!("paused step {b}: {} responses", responders.len())
            });
            continue;
        }
        for &c in clients {
            let n = responders.iter().filter(|&&r| r == c).count();
            checks.check(n == 1, || format!("step {b}: client {c} got {n} responses"));
        }
    }
    checks.check(session.retargets_refused == 0, || {
        format!("{} retargets refused", session.retargets_refused)
    });
    checks
}
