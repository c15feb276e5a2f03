//! Extension experiment (paper §8 future work): cross-job transfer
//! learning. A donor latency model distilled from one completed job
//! warm-starts NURD's latency head on fresh jobs; the question is whether
//! it helps in the early checkpoints, where the scratch model has almost
//! no training data.

use nurd_core::{DonorModel, NurdConfig, NurdPredictor};
use nurd_sim::{replay_job, ReplayConfig, ReplayOutcome};
use nurd_trace::{SuiteConfig, TraceStyle};

fn decile_series(outcomes: &[ReplayOutcome]) -> [f64; 10] {
    let mut series = [0.0f64; 10];
    for out in outcomes {
        for (s, v) in series.iter_mut().zip(out.f1_at_normalized_times(10)) {
            *s += v;
        }
    }
    for s in &mut series {
        *s /= outcomes.len() as f64;
    }
    series
}

fn main() {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(13)
        .with_task_range(120, 220)
        .with_seed(0xE87);
    let jobs = nurd_trace::generate_suite(&cfg);
    // Job 0 is the completed donor; jobs 1.. are the online targets.
    let donor = DonorModel::from_job(&jobs[0], &NurdConfig::default()).expect("donor job distills");
    let targets = &jobs[1..];

    let replay = ReplayConfig::default();
    let mut scratch = Vec::new();
    let mut transfer = Vec::new();
    for job in targets {
        let mut a = NurdPredictor::new(NurdConfig::default());
        scratch.push(replay_job(job, &mut a, &replay));
        let mut b = NurdPredictor::with_prior(NurdConfig::default(), donor.clone());
        transfer.push(replay_job(job, &mut b, &replay));
    }

    println!(
        "Extension: cross-job transfer learning ({} target jobs, 1 donor job).",
        targets.len()
    );
    println!("\nmean F1 at normalized-time deciles:");
    print!("{:10}", "variant");
    for p in 1..=10 {
        print!(" {:>5.1}", p as f64 / 10.0);
    }
    println!();
    for (name, outcomes) in [("NURD", &scratch), ("NURD-TL", &transfer)] {
        print!("{name:10}");
        for v in decile_series(outcomes) {
            print!(" {v:5.2}");
        }
        println!();
    }

    let f1 = |outs: &[ReplayOutcome]| -> f64 {
        outs.iter().map(|o| o.confusion.f1()).sum::<f64>() / outs.len() as f64
    };
    println!(
        "\nend-of-job F1: NURD {:.3} vs NURD-TL {:.3}",
        f1(&scratch),
        f1(&transfer)
    );
    println!(
        "(the transfer head shares NURD's propensity/calibration; only the\n\
         latency model is warm-started, so gains concentrate early)"
    );
}
