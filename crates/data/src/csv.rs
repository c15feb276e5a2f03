//! Minimal CSV (de)serialization for job traces.
//!
//! Format (one file can hold many jobs):
//!
//! ```text
//! #job,42
//! #features,MCU,MAXCPU
//! #checkpoints,10,20,30
//! task,latency,ckpt,MCU,MAXCPU
//! 0,25.0,0,0.10,0.20
//! 0,25.0,1,0.12,0.22
//! ...
//! ```
//!
//! One data row per (task, checkpoint). Values are plain numbers and feature
//! names are identifiers, so no quoting/escaping is needed; commas inside
//! fields are unsupported by design.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::{DataError, JobTrace, TaskRecord};

/// Writes one job in the trace CSV format.
///
/// The `writer` can be any [`Write`]; pass `&mut` if you need it back.
///
/// # Errors
///
/// Propagates I/O failures as [`DataError::Io`].
fn write_job_csv<W: Write>(mut writer: W, job: &JobTrace) -> Result<(), DataError> {
    writeln!(writer, "#job,{}", job.job_id())?;
    writeln!(writer, "#features,{}", job.feature_names().join(","))?;
    let times: Vec<String> = job
        .checkpoint_times()
        .iter()
        .map(|t| format!("{t}"))
        .collect();
    writeln!(writer, "#checkpoints,{}", times.join(","))?;
    writeln!(
        writer,
        "task,latency,ckpt,{}",
        job.feature_names().join(",")
    )?;
    for task in job.tasks() {
        for (k, snap) in task.snapshots().enumerate() {
            let vals: Vec<String> = snap.iter().map(|v| format!("{v}")).collect();
            writeln!(
                writer,
                "{},{},{},{}",
                task.id(),
                task.latency(),
                k,
                vals.join(",")
            )?;
        }
    }
    Ok(())
}

/// Writes many jobs, concatenated, to `path`.
///
/// # Errors
///
/// Propagates I/O failures as [`DataError::Io`].
pub fn write_jobs_csv<P: AsRef<Path>>(path: P, jobs: &[JobTrace]) -> Result<(), DataError> {
    let mut w = BufWriter::new(File::create(path)?);
    for job in jobs {
        write_job_csv(&mut w, job)?;
    }
    Ok(())
}

/// Reads a single job from a reader; errors if the input holds zero or more
/// than one job.
///
/// The `reader` can be any [`Read`]; pass `&mut` if you need it back.
///
/// # Errors
///
/// [`DataError::Parse`] on malformed lines, [`DataError::Invalid`] when the
/// job count differs from one.
pub fn read_job_csv<R: Read>(reader: R) -> Result<JobTrace, DataError> {
    let jobs = parse_jobs(reader)?;
    match jobs.len() {
        1 => Ok(jobs.into_iter().next().expect("checked length")),
        n => Err(DataError::Invalid(format!("expected 1 job, found {n}"))),
    }
}

/// Reads all jobs from a trace CSV file.
///
/// # Errors
///
/// [`DataError::Io`] on I/O failures, [`DataError::Parse`] on malformed
/// lines, [`DataError::Invalid`] on structurally inconsistent jobs.
pub fn read_jobs_csv<P: AsRef<Path>>(path: P) -> Result<Vec<JobTrace>, DataError> {
    parse_jobs(File::open(path)?)
}

struct PendingJob {
    job_id: u64,
    feature_names: Vec<String>,
    checkpoint_times: Vec<f64>,
    /// (latency, snapshots) per task id.
    tasks: Vec<(f64, Vec<Vec<f64>>)>,
}

impl PendingJob {
    fn finish(self) -> Result<JobTrace, DataError> {
        let ckpts = self.checkpoint_times.len();
        let width = self.feature_names.len();
        if width == 0 {
            return Err(DataError::Invalid("job declares no features".into()));
        }
        let tasks: Vec<TaskRecord> = self
            .tasks
            .into_iter()
            .enumerate()
            .map(|(id, (latency, snaps))| {
                if snaps.len() != ckpts {
                    return Err(DataError::Invalid(format!(
                        "task {id} has {} snapshots, expected {ckpts}",
                        snaps.len()
                    )));
                }
                // TaskRecord::new panics on these; a file reader must
                // return an error instead.
                if !(latency.is_finite() && latency > 0.0) {
                    return Err(DataError::Invalid(format!(
                        "task {id} has non-positive or non-finite latency {latency}"
                    )));
                }
                // A `#features` line between a task's rows changes the
                // width of the rows after it.
                if let Some(k) = snaps.iter().position(|snap| snap.len() != width) {
                    return Err(DataError::Invalid(format!(
                        "task {id} snapshot {k} has {} features, job declares {width}",
                        snaps[k].len()
                    )));
                }
                if snaps.iter().flatten().any(|v| !v.is_finite()) {
                    return Err(DataError::Invalid(format!(
                        "task {id} has non-finite feature values"
                    )));
                }
                Ok(TaskRecord::new(id, latency, snaps))
            })
            .collect::<Result<_, _>>()?;
        JobTrace::new(
            self.job_id,
            self.feature_names,
            self.checkpoint_times,
            tasks,
        )
    }
}

fn parse_jobs<R: Read>(reader: R) -> Result<Vec<JobTrace>, DataError> {
    let reader = BufReader::new(reader);
    let mut jobs = Vec::new();
    let mut current: Option<PendingJob> = None;

    for (lineno, line) in reader.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| DataError::Parse {
            line: lineno,
            message,
        };

        if let Some(rest) = line.strip_prefix("#job,") {
            if let Some(pending) = current.take() {
                jobs.push(pending.finish()?);
            }
            let job_id = rest
                .trim()
                .parse::<u64>()
                .map_err(|e| err(format!("bad job id: {e}")))?;
            current = Some(PendingJob {
                job_id,
                feature_names: Vec::new(),
                checkpoint_times: Vec::new(),
                tasks: Vec::new(),
            });
        } else if let Some(rest) = line.strip_prefix("#features,") {
            let job = current
                .as_mut()
                .ok_or_else(|| err("#features before #job".into()))?;
            job.feature_names = rest.split(',').map(|s| s.trim().to_string()).collect();
        } else if let Some(rest) = line.strip_prefix("#checkpoints,") {
            let job = current
                .as_mut()
                .ok_or_else(|| err("#checkpoints before #job".into()))?;
            job.checkpoint_times = rest
                .split(',')
                .map(|s| s.trim().parse::<f64>())
                .collect::<Result<_, _>>()
                .map_err(|e| err(format!("bad checkpoint time: {e}")))?;
        } else if line.starts_with("task,") {
            // Column header line; nothing to parse.
        } else {
            let job = current
                .as_mut()
                .ok_or_else(|| err("data row before #job".into()))?;
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 3 + job.feature_names.len() {
                return Err(err(format!(
                    "expected {} fields, found {}",
                    3 + job.feature_names.len(),
                    fields.len()
                )));
            }
            let task_id = fields[0]
                .parse::<usize>()
                .map_err(|e| err(format!("bad task id: {e}")))?;
            let latency = fields[1]
                .parse::<f64>()
                .map_err(|e| err(format!("bad latency: {e}")))?;
            let ckpt = fields[2]
                .parse::<usize>()
                .map_err(|e| err(format!("bad checkpoint index: {e}")))?;
            let snap: Vec<f64> = fields[3..]
                .iter()
                .map(|s| s.parse::<f64>())
                .collect::<Result<_, _>>()
                .map_err(|e| err(format!("bad feature value: {e}")))?;
            if task_id > job.tasks.len() {
                return Err(err(format!(
                    "task ids must appear in order, got {task_id} after {}",
                    job.tasks.len()
                )));
            }
            if task_id == job.tasks.len() {
                job.tasks.push((latency, Vec::new()));
            }
            let entry = &mut job.tasks[task_id];
            if ckpt != entry.1.len() {
                return Err(err(format!(
                    "checkpoint indices must appear in order, got {ckpt} after {}",
                    entry.1.len()
                )));
            }
            entry.1.push(snap);
        }
    }
    if let Some(pending) = current.take() {
        jobs.push(pending.finish()?);
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_job(job_id: u64) -> JobTrace {
        let tasks = vec![
            TaskRecord::new(0, 5.0, vec![vec![0.1, 1.0], vec![0.2, 2.0]]),
            TaskRecord::new(1, 25.0, vec![vec![0.9, 3.0], vec![1.1, 4.5]]),
        ];
        JobTrace::new(
            job_id,
            vec!["cpu".into(), "mem".into()],
            vec![10.0, 30.0],
            tasks,
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_single_job() {
        let job = sample_job(42);
        let mut buf = Vec::new();
        write_job_csv(&mut buf, &job).unwrap();
        let parsed = read_job_csv(buf.as_slice()).unwrap();
        assert_eq!(parsed, job);
    }

    #[test]
    fn roundtrip_multiple_jobs_via_file() {
        let jobs = vec![sample_job(1), sample_job(2)];
        let dir = std::env::temp_dir().join("nurd-data-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.csv");
        write_jobs_csv(&path, &jobs).unwrap();
        let parsed = read_jobs_csv(&path).unwrap();
        assert_eq!(parsed, jobs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_rejects_garbage() {
        let input = b"#job,1\n#features,a\n#checkpoints,1\nnot,a,valid,row\n";
        assert!(matches!(
            read_job_csv(&input[..]),
            Err(DataError::Parse { .. })
        ));
    }

    #[test]
    fn read_rejects_row_before_header() {
        let input = b"0,1.0,0,0.5\n";
        assert!(read_job_csv(&input[..]).is_err());
    }

    #[test]
    fn read_rejects_out_of_order_checkpoints() {
        let input = b"#job,1\n#features,f\n#checkpoints,1,2\n0,1.0,1,0.5\n";
        let err = read_job_csv(&input[..]).unwrap_err();
        assert!(err.to_string().contains("order"), "got: {err}");
    }

    #[test]
    fn read_rejects_two_jobs_when_one_expected() {
        let mut buf = Vec::new();
        write_job_csv(&mut buf, &sample_job(1)).unwrap();
        write_job_csv(&mut buf, &sample_job(2)).unwrap();
        assert!(matches!(
            read_job_csv(buf.as_slice()),
            Err(DataError::Invalid(_))
        ));
    }

    #[test]
    fn read_rejects_non_finite_values_with_error_not_panic() {
        // NaN latency.
        let input = b"#job,1\n#features,f\n#checkpoints,1\n0,nan,0,0.5\n";
        assert!(matches!(
            read_job_csv(&input[..]),
            Err(DataError::Invalid(_))
        ));
        // Zero latency.
        let input = b"#job,1\n#features,f\n#checkpoints,1\n0,0.0,0,0.5\n";
        assert!(read_job_csv(&input[..]).is_err());
        // Infinite feature.
        let input = b"#job,1\n#features,f\n#checkpoints,1\n0,1.0,0,inf\n";
        assert!(matches!(
            read_job_csv(&input[..]),
            Err(DataError::Invalid(_))
        ));
    }

    #[test]
    fn read_rejects_a_ragged_series_with_error_not_panic() {
        // Task 0's second row is read under a two-name `#features` line,
        // and the job's last `#features` line declares one name again.
        let input = b"#job,1\n#features,f\n#checkpoints,1,2\n0,1.0,0,0.1\n\
            #features,f,g\n0,1.0,1,0.2,9.9\n#features,f\n";
        let err = read_job_csv(&input[..]).unwrap_err();
        assert!(matches!(err, DataError::Invalid(_)), "got: {err}");
        assert!(err.to_string().contains("snapshot 1"), "got: {err}");
    }

    #[test]
    fn read_rejects_a_job_without_features() {
        let input = b"#job,1\n#checkpoints,1\n0,1.0,0\n";
        assert!(matches!(
            read_job_csv(&input[..]),
            Err(DataError::Invalid(_))
        ));
    }

    #[test]
    fn blank_lines_are_ignored() {
        let job = sample_job(9);
        let mut buf = Vec::new();
        write_job_csv(&mut buf, &job).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("\n\n");
        let parsed = read_job_csv(text.as_bytes()).unwrap();
        assert_eq!(parsed, job);
    }
}
