//! Seeded inputs. One seed generates each workload's oscillator deck
//! and the interactive client script; the program receives only these.
//!
//! The amount of work is the same at every seed and stays the same
//! through a run: the deck always holds [`OSCILLATORS`] periodic
//! oscillators whose Gaussian support covers the whole domain (radii
//! 0.15–0.25, so the solver culls nothing) and whose periods (50–100
//! steps) are short next to a timed loop, and the client mix is fixed.
//! The seed moves centers, radii, frequencies, client order and
//! steering boundaries, so seeds differ in values, not cost. (Damped
//! and decaying oscillators would fade during the run and make the
//! render cost drift with how far the warm-up got.)

use oscillator::{format_deck, Oscillator, OscillatorKind};
use query::{Action, ClientId, Query, SessionScript, SteerCommand};

/// Oscillators in every deck.
pub const OSCILLATORS: usize = 4;

/// Summary, histogram and leaf-slice clients of the interactive script.
pub const CLIENT_MIX: [(ClientKind, usize); 3] = [
    (ClientKind::Summary, 3),
    (ClientKind::Histogram, 3),
    (ClientKind::Slice, 2),
];

/// Client id that issues the steering commands.
pub const STEERING_CLIENT: ClientId = 1000;

/// Boundaries per steering window: each window holds one pause/resume,
/// one refine and two retargets at seeded boundaries.
pub const STEER_WINDOW: u64 = 100;

/// Boundaries a pause holds the simulation.
pub const PAUSE_LEN: u64 = 2;

/// SplitMix64: a small, fixed, seedable generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and input `stream` (distinct streams give
    /// independent sequences from one seed).
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The seeded oscillator deck, as the text the simulation's root reads.
pub fn deck(seed: u64) -> String {
    let mut rng = Rng::new(seed, 1);
    let oscillators: Vec<Oscillator> = (0..OSCILLATORS)
        .map(|_| Oscillator {
            kind: OscillatorKind::Periodic,
            center: [
                rng.uniform(0.25, 0.75),
                rng.uniform(0.25, 0.75),
                rng.uniform(0.25, 0.75),
            ],
            radius: rng.uniform(0.15, 0.25),
            omega: rng.uniform(2.0, 4.0) * std::f64::consts::PI,
            zeta: 0.0,
        })
        .collect();
    format_deck(&oscillators)
}

/// Client kinds of the interactive script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientKind {
    /// Global field summary.
    Summary,
    /// Global histogram.
    Histogram,
    /// Leading values of rank 0's leaf.
    Slice,
}

/// The seeded interactive session for `boundaries` bridge steps: the
/// fixed client mix registered at boundary 0 in seeded order, then per
/// [`STEER_WINDOW`] one pause held [`PAUSE_LEN`] boundaries, one refine
/// and two oscillator retargets.
pub fn session_script(seed: u64, boundaries: u64) -> SessionScript {
    let mut rng = Rng::new(seed, 2);
    let mut kinds: Vec<ClientKind> = CLIENT_MIX
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut script = SessionScript::new();
    for (id, kind) in kinds.into_iter().enumerate() {
        let query = match kind {
            ClientKind::Summary => Query::Summary {
                field: "data".into(),
            },
            ClientKind::Histogram => Query::Histogram {
                field: "data".into(),
                bins: [16, 32, 64][rng.below(3) as usize],
            },
            ClientKind::Slice => Query::LeafSlice {
                field: "data".into(),
                leaf: 0,
            },
        };
        script = script.at(0, id as ClientId, Action::Register(query));
    }
    let steer = |s: SessionScript, at: u64, cmd: SteerCommand| {
        s.at(at, STEERING_CLIENT, Action::Steer(cmd))
    };
    let mut base = STEER_WINDOW;
    while base + STEER_WINDOW <= boundaries {
        let pause = base + 10 + rng.below(STEER_WINDOW - 20);
        script = steer(script, pause, SteerCommand::Pause);
        script = steer(script, pause + PAUSE_LEN, SteerCommand::Resume);
        let bins = [16, 32, 64, 128][rng.below(4) as usize];
        script = steer(
            script,
            base + rng.below(STEER_WINDOW),
            SteerCommand::Refine { bins },
        );
        for _ in 0..2 {
            let cmd = SteerCommand::Retarget {
                oscillator: rng.below(OSCILLATORS as u64) as usize,
                center: [
                    rng.uniform(0.25, 0.75),
                    rng.uniform(0.25, 0.75),
                    rng.uniform(0.25, 0.75),
                ],
                omega: rng.uniform(2.0, 4.0) * std::f64::consts::PI,
            };
            script = steer(script, base + rng.below(STEER_WINDOW), cmd);
        }
        base += STEER_WINDOW;
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_values() {
        assert_eq!(deck(5), deck(5));
        assert_ne!(deck(5), deck(6));
        assert_eq!(session_script(5, 1000), session_script(5, 1000));
        assert_ne!(session_script(5, 1000), session_script(6, 1000));
        let parsed = oscillator::parse_deck(&deck(9)).expect("deck parses");
        assert_eq!(parsed.len(), OSCILLATORS);
        assert!(parsed.iter().all(|o| (0.15..0.25).contains(&o.radius)));
    }

    #[test]
    fn script_keeps_the_client_mix_at_every_seed() {
        for seed in 0..8 {
            let s = session_script(seed, 1000);
            let regs: Vec<&Query> = s
                .commands()
                .iter()
                .filter_map(|c| match &c.action {
                    Action::Register(q) => Some(q),
                    Action::Steer(_) => None,
                })
                .collect();
            let count = |f: fn(&Query) -> bool| regs.iter().filter(|q| f(q)).count();
            assert_eq!(count(|q| matches!(q, Query::Summary { .. })), 3);
            assert_eq!(count(|q| matches!(q, Query::Histogram { .. })), 3);
            assert_eq!(count(|q| matches!(q, Query::LeafSlice { .. })), 2);
            let pauses = s
                .commands()
                .iter()
                .filter(|c| c.action == Action::Steer(SteerCommand::Pause))
                .count();
            assert_eq!(pauses, 9);
        }
    }
}
