//! Untimed 1-rank references for the bitwise checks.

use minimpi::World;
use oscillator::{OscillatorAdaptor, SimConfig, Simulation};
use sensei::analysis::histogram::{HistogramAnalysis, HistogramResult};
use sensei::AnalysisAdaptor as _;

use crate::common::Params;

/// The in situ histogram of the seed's deck at each bridge boundary in
/// `boundaries`, computed on one rank.
///
/// The field depends only on the step's time, and boundary `b` solves
/// at `t = b · dt`. A simulation whose `dt` is that `t` reaches it on
/// its second step with the same floating-point value, so each
/// reference costs two solver steps instead of `b`.
pub fn histograms(
    seed: u64,
    params: &Params,
    boundaries: &[u64],
    bins: usize,
) -> Vec<HistogramResult> {
    let deck = crate::inputs::deck(seed);
    let grid = params.grid;
    let boundaries = boundaries.to_vec();
    let dt = SimConfig::default().dt;
    let mut out = World::run(1, move |comm| {
        boundaries
            .iter()
            .map(|&b| {
                let cfg = SimConfig {
                    grid: [grid; 3],
                    dt: b as f64 * dt,
                    ..SimConfig::default()
                };
                let mut sim = Simulation::new(comm, cfg, Some(&deck));
                sim.step(comm);
                sim.step(comm);
                let mut hist = HistogramAnalysis::new("data", bins);
                let results = hist.results_handle();
                hist.execute(&OscillatorAdaptor::new(&sim), comm);
                let result = results.lock().take();
                result.expect("1-rank histogram result")
            })
            .collect::<Vec<_>>()
    });
    out.remove(0)
}

/// Same range and counts, bit for bit (the step stamp may differ).
pub fn same_bits(a: &HistogramResult, b: &HistogramResult) -> bool {
    a.min.to_bits() == b.min.to_bits() && a.max.to_bits() == b.max.to_bits() && a.counts == b.counts
}
