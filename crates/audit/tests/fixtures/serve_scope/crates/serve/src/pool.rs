//! A serving module no scope list names: the directory puts it in scope.

/// Takes the first queued job.
pub fn first(jobs: &[u32]) -> u32 {
    *jobs.first().unwrap()
}

/// Narrows a job count.
pub fn narrow(n: u64) -> u32 {
    n as u32
}
