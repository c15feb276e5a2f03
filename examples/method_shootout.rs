//! Head-to-head comparison of a few methods from the paper's Table 3 on a
//! small suite — a miniature of the full `repro table3_accuracy` experiment.
//!
//! ```sh
//! cargo run --release --example method_shootout
//! ```

use nurd::sim::{replay_job, MethodSummary, ReplayConfig};
use nurd::trace::{SuiteConfig, TraceStyle};

fn main() {
    let config = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(8)
        .with_task_range(120, 200)
        .with_seed(0xD0E);
    let jobs = nurd::trace::generate_suite(&config);

    let picks = [
        "GBTR", "KNN", "PU-EN", "Grabit", "Wrangler", "NURD-NC", "NURD",
    ];
    println!("Mini Table 3 ({} Google-style jobs)\n", jobs.len());
    println!(
        "{:10} {:>6} {:>6} {:>6} {:>6}",
        "method", "TPR", "FPR", "FNR", "F1"
    );

    for spec in nurd::baselines::registry() {
        if !picks.contains(&spec.name) {
            continue;
        }
        let confusions: Vec<_> = jobs
            .iter()
            .map(|job| {
                let mut predictor = spec.build(job);
                replay_job(job, predictor.as_mut(), &ReplayConfig::default()).confusion
            })
            .collect();
        let s = MethodSummary::from_confusions(&confusions);
        println!(
            "{:10} {:6.2} {:6.2} {:6.2} {:6.3}",
            spec.name, s.tpr, s.fpr, s.fnr, s.f1
        );
    }
    println!(
        "\n(run `cargo run --release -p nurd-bench --bin repro -- table3_accuracy` for all 24 methods)"
    );
}
