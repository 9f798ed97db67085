//! Job registry — every campaign request gets a job whose progress can be
//! observed from other connections while it runs.
//!
//! A job is a tiny event log behind a `Mutex` + `Condvar`: the computing
//! worker appends progress lines, streaming readers block on the condvar
//! until new lines (or completion) arrive. Job ids are the request
//! correlation ids, so a trace, a response header and a `/v1/jobs/<id>`
//! poll all name the same thing.
//!
//! The registry keeps every running job plus the most recent
//! [`FINISHED_JOBS_KEPT`] finished ones; older finished jobs are evicted
//! as new ones finish, so a long-running server's registry stays bounded.
//! A job keeps its whole log in one string, so evicting it frees two
//! blocks (the log and the job) however many lines it logged: an evicted
//! job is long out of cache, and every block freed costs a miss.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

/// How many finished jobs stay queryable after they finish.
pub const FINISHED_JOBS_KEPT: usize = 1024;

/// Snapshot of one job's state.
#[derive(Debug, Clone)]
pub struct JobState {
    /// What the job is ("sweep", "figure").
    pub kind: String,
    /// Cells the job will compute.
    pub total: u64,
    /// Cells finished so far.
    pub completed: u64,
    /// True once the request finished (successfully or not).
    pub done: bool,
    /// Final status: "running", then "ok" or an error message.
    pub status: String,
    /// Progress lines, oldest first.
    pub events: Vec<String>,
}

/// What a job holds while it lives.
#[derive(Debug)]
struct Log {
    kind: &'static str,
    total: u64,
    completed: u64,
    done: bool,
    /// Progress lines, each ending in `\n`, oldest first.
    lines: String,
    /// How many lines `lines` holds.
    count: usize,
    /// Where the final status starts in `lines` (the rest of the last
    /// line), once done.
    status_at: usize,
}

impl Log {
    fn push(&mut self, line: &str) {
        self.lines.push_str(line);
        self.lines.push('\n');
        self.count += 1 + line.matches('\n').count();
    }

    fn lines_from(&self, from: usize) -> Vec<String> {
        self.lines
            .split_terminator('\n')
            .skip(from)
            .map(str::to_string)
            .collect()
    }
}

/// One observable request-scoped job.
#[derive(Debug)]
pub struct Job {
    /// Correlation id (equals the request id that created the job).
    pub id: u64,
    state: Mutex<Log>,
    cv: Condvar,
}

impl Job {
    fn new(id: u64, kind: &'static str, total: u64) -> Job {
        let mut log = Log {
            kind,
            total,
            completed: 0,
            done: false,
            // Room for a one-cell sweep's start, cell and done lines.
            lines: String::with_capacity(128),
            count: 0,
            status_at: 0,
        };
        log.push(&format!("start kind={kind} total={total}"));
        Job {
            id,
            state: Mutex::new(log),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Log> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Append a progress line.
    pub fn push_event(&self, line: String) {
        self.lock().push(&line);
        self.cv.notify_all();
    }

    /// Record one finished cell (with a progress line).
    pub fn advance(&self, line: String) {
        let mut log = self.lock();
        log.completed += 1;
        log.push(&line);
        self.cv.notify_all();
    }

    /// Mark the job finished with the given status line.
    fn finish(&self, status: &str) {
        let mut log = self.lock();
        log.done = true;
        log.status_at = log.lines.len() + "done status=".len();
        log.push(&format!("done status={status}"));
        self.cv.notify_all();
    }

    /// Copy of the current state.
    pub fn snapshot(&self) -> JobState {
        let log = self.lock();
        let status = if log.done {
            &log.lines[log.status_at..log.lines.len() - 1]
        } else {
            "running"
        };
        JobState {
            kind: log.kind.to_string(),
            total: log.total,
            completed: log.completed,
            done: log.done,
            status: status.to_string(),
            events: log.lines_from(0),
        }
    }

    /// Block until events beyond `from` exist (or the job is done), then
    /// return the new events and whether the job has finished. Returns
    /// immediately with `(vec![], true)` when fully drained.
    pub fn wait_events(&self, from: usize) -> (Vec<String>, bool) {
        let mut log = self.lock();
        while log.count <= from && !log.done {
            log = self.cv.wait(log).unwrap_or_else(|p| p.into_inner());
        }
        (log.lines_from(from), log.done)
    }
}

/// Running jobs and the most recent finished ones, by id.
#[derive(Debug, Default)]
pub struct JobRegistry {
    jobs: Mutex<Jobs>,
}

#[derive(Debug, Default)]
struct Jobs {
    by_id: HashMap<u64, Arc<Job>>,
    /// Ids of finished jobs still held, oldest first.
    finished: VecDeque<u64>,
}

impl JobRegistry {
    /// An empty registry.
    pub fn new() -> JobRegistry {
        JobRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Jobs> {
        self.jobs.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Create and register a job under the given correlation id.
    pub fn create(&self, id: u64, kind: &'static str, total: u64) -> Arc<Job> {
        let job = Arc::new(Job::new(id, kind, total));
        self.lock().by_id.insert(id, Arc::clone(&job));
        job
    }

    /// Mark `job` finished with the given status line, evicting the
    /// oldest finished job once more than [`FINISHED_JOBS_KEPT`] are held.
    pub fn finish(&self, job: &Job, status: &str) {
        job.finish(status);
        let mut jobs = self.lock();
        jobs.finished.push_back(job.id);
        if jobs.finished.len() > FINISHED_JOBS_KEPT {
            if let Some(old) = jobs.finished.pop_front() {
                jobs.by_id.remove(&old);
            }
        }
    }

    /// Look a job up by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.lock().by_id.get(&id).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_lifecycle_and_event_streaming() {
        let reg = JobRegistry::new();
        let job = reg.create(7, "sweep", 2);
        assert_eq!(reg.get(7).unwrap().id, 7);
        assert!(reg.get(8).is_none());

        let watcher = {
            let job = Arc::clone(&job);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                let mut from = 0;
                loop {
                    let (fresh, done) = job.wait_events(from);
                    from += fresh.len();
                    seen.extend(fresh);
                    if done {
                        return seen;
                    }
                }
            })
        };

        job.advance("cell x=1".to_string());
        job.advance("cell x=2".to_string());
        reg.finish(&job, "ok");
        let seen = watcher.join().unwrap();
        assert_eq!(seen.len(), 4, "start + 2 cells + done: {seen:?}");
        assert!(seen[0].starts_with("start kind=sweep"));
        assert!(seen[3].contains("status=ok"));

        let st = job.snapshot();
        assert!(st.done);
        assert_eq!(st.completed, 2);
        assert_eq!(st.status, "ok");
    }

    #[test]
    fn registry_keeps_running_jobs_and_the_newest_finished_ones() {
        let reg = JobRegistry::new();
        let running = reg.create(1, "sweep", 1);
        for id in 2..1_102 {
            let job = reg.create(id, "sweep", 0);
            reg.finish(&job, "ok");
        }
        assert_eq!(reg.get(1_101).unwrap().id, 1_101, "newest finished job");
        assert!(reg.get(2).is_none(), "oldest finished job is evicted");
        assert!(reg.get(1_101 - FINISHED_JOBS_KEPT as u64).is_none());
        assert!(reg.get(1_102 - FINISHED_JOBS_KEPT as u64).is_some());
        assert_eq!(reg.get(1).unwrap().id, 1, "a running job is never evicted");
        assert!(!running.snapshot().done);
        assert_eq!(reg.lock().by_id.len(), FINISHED_JOBS_KEPT + 1);
    }
}
