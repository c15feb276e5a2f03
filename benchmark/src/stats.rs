//! Order statistics for repeated measurements.

/// Median, quartiles and sample count of one metric's repeated passes.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Linear-interpolated percentile (`p` in `[0, 100]`) of an ascending
/// slice; `0.0` for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values.to_vec());
    Summary {
        median: percentile(&s, 50.0),
        q1: percentile(&s, 25.0),
        q3: percentile(&s, 75.0),
        n: s.len(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The best of repeated rounds: the highest rate or the lowest time.
///
/// The box this benchmark was built on runs in two speed states — for
/// seconds at a time every thread drops to about two thirds of its speed
/// (README, "Noise") — so interference only ever adds time. A median over
/// the rounds then reports how often the box was slow; the best round
/// reports the program.
pub fn best(values: &[f64], higher_is_better: bool) -> f64 {
    values
        .iter()
        .copied()
        .reduce(if higher_is_better { f64::max } else { f64::min })
        .unwrap_or(0.0)
}

/// The wall time of a pass with the box's slow stretches taken out.
///
/// Each round's timeline is cut at the same marks (every sixteenth scored
/// barrier's stamp, then the end), so segment `k` of every round covers
/// the same stretch of the stream. A slow stretch of the box lasts
/// seconds, a segment tens of milliseconds: each segment is taken from
/// the round that ran it fastest, and the segments are summed. With a
/// single mark per round this is the best round's wall.
pub fn quiet_wall(rounds: &[Vec<f64>]) -> f64 {
    let segments = rounds.first().map_or(0, Vec::len);
    (0..segments)
        .map(|k| {
            let durations: Vec<f64> = rounds
                .iter()
                .map(|marks| marks[k] - if k == 0 { 0.0 } else { marks[k - 1] })
                .collect();
            best(&durations, false)
        })
        .sum()
}
