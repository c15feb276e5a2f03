//! PU learning: the fit-and-flag bodies of PU-EN and PU-BG, whose labeled
//! class is the finished tasks.

use crate::adapter::{running_where, FitAndFlag};
use crate::pu::{PuBagging, PuEn};
use nurd_data::Checkpoint;

/// PU-EN online: labeled = finished, unlabeled = running; a running task
/// whose corrected finished-class probability falls below 0.5 is flagged.
///
/// As §3.3 of the paper predicts, the "labeled at random" assumption fails
/// here (only *fast* non-stragglers get labeled), so the classifier is
/// over-aggressive early — high TPR, high FPR.
impl FitAndFlag for PuEn {
    fn flag(&self, checkpoint: &Checkpoint<'_>, _threshold: f64) -> Option<Vec<usize>> {
        let labeled = checkpoint.finished_features();
        let model = self.fit(&labeled, &checkpoint.running_features()).ok()?;
        Some(running_where(checkpoint, |f| {
            model.positive_probability(f) < 0.5
        }))
    }
}

/// PU-BG online: bagged SVMs trained finished-vs-random-unlabeled; a
/// running task with a negative out-of-bag decision score (not
/// finished-like) is flagged.
impl FitAndFlag for PuBagging {
    fn flag(&self, checkpoint: &Checkpoint<'_>, _threshold: f64) -> Option<Vec<usize>> {
        let positives = checkpoint.finished_features();
        let scores = self
            .oob_scores(&positives, &checkpoint.running_features())
            .ok()?;
        let flagged = checkpoint.running.iter().zip(scores);
        Some(
            flagged
                .filter(|&(_, score)| score < 0.0)
                .map(|(t, _)| t.id)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Adapter;
    use nurd_data::OnlinePredictor;
    use nurd_sim::{replay_job, ReplayConfig};
    use nurd_trace::{SuiteConfig, TraceStyle};

    fn job() -> nurd_data::JobTrace {
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(1)
            .with_task_range(100, 130)
            .with_checkpoints(12)
            .with_seed(88);
        nurd_trace::generate_job(&cfg, 0)
    }

    #[test]
    fn pu_en_is_aggressive_but_catches_stragglers() {
        let job = job();
        let mut p = Adapter::new("PU-EN", PuEn::default());
        let out = replay_job(&job, &mut p, &ReplayConfig::default());
        // The paper's observation: PU learners achieve high TPR at the cost
        // of many false positives.
        assert!(out.confusion.tpr() > 0.5, "tpr {}", out.confusion.tpr());
    }

    #[test]
    fn pu_bg_runs_the_protocol() {
        let job = job();
        let mut p = Adapter::new("PU-BG", PuBagging::default());
        let out = replay_job(&job, &mut p, &ReplayConfig::default());
        assert_eq!(out.confusion.total(), job.task_count());
    }

    #[test]
    fn empty_checkpoints_produce_no_flags() {
        let ckpt = Checkpoint {
            ordinal: 0,
            time: 1.0,
            finished: vec![],
            running: vec![],
        };
        assert!(Adapter::new("PU-EN", PuEn::default())
            .predict(&ckpt)
            .is_empty());
        assert!(Adapter::new("PU-BG", PuBagging::default())
            .predict(&ckpt)
            .is_empty());
    }
}
