//! Position-indexed per-job tables.
//!
//! An app's per-job runtime state (progress, restart penalties, parallelism
//! overrides) lives in vectors parallel to `AppSpec::jobs` rather than in
//! `BTreeMap<JobId, _>`s: the engine walks jobs by position every round, and
//! a lookup by id is O(1) whenever job `k` sits at position `k` (every trace
//! generator numbers jobs that way). [`JobTable`] keeps the map-style
//! surface (`table[&job]`, `get`, `get_mut`, `insert`) so policies address
//! jobs by id as before, with a search fallback for any other numbering.

use std::ops::Index;
use std::sync::Arc;
use themis_cluster::ids::JobId;

/// One `T` per job of an app, stored in the app's job order.
#[derive(Debug, Clone)]
pub struct JobTable<T> {
    /// Position → job id, shared between an app's tables.
    ids: Arc<[JobId]>,
    values: Vec<T>,
}

impl<T> JobTable<T> {
    /// A table over `ids` with every entry produced by `fill`.
    pub(crate) fn filled(ids: Arc<[JobId]>, fill: impl FnMut() -> T) -> Self {
        let values = std::iter::repeat_with(fill).take(ids.len()).collect();
        JobTable { ids, values }
    }

    /// The position of a job: its id when jobs are numbered by position,
    /// otherwise the first position holding that id.
    pub fn position(&self, job: JobId) -> Option<usize> {
        match self.ids.get(job.index()) {
            Some(id) if *id == job => Some(job.index()),
            _ => self.ids.iter().position(|id| *id == job),
        }
    }

    /// The entry of a job, if the app has that job.
    pub fn get(&self, job: &JobId) -> Option<&T> {
        self.position(*job).map(|pos| &self.values[pos])
    }

    /// Mutable access to the entry of a job, if the app has that job.
    pub fn get_mut(&mut self, job: &JobId) -> Option<&mut T> {
        self.position(*job).map(|pos| &mut self.values[pos])
    }

    /// The entries in job order (parallel to `AppSpec::jobs`).
    pub fn as_slice(&self) -> &[T] {
        &self.values
    }

    /// The entries in job order, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// `(job, entry)` pairs in job order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &T)> {
        self.ids.iter().copied().zip(&self.values)
    }
}

impl<T> JobTable<Option<T>> {
    /// Sets the value of a job, returning the previous one. A job the app
    /// does not have is ignored (nothing addresses it afterwards).
    pub fn insert(&mut self, job: JobId, value: T) -> Option<T> {
        self.get_mut(&job)?.replace(value)
    }
}

impl<T> Index<&JobId> for JobTable<T> {
    type Output = T;
    fn index(&self, job: &JobId) -> &T {
        self.get(job)
            .unwrap_or_else(|| panic!("job {job} not in app"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(ids: &[u32]) -> JobTable<Option<usize>> {
        JobTable::filled(ids.iter().map(|id| JobId(*id)).collect(), || None)
    }

    #[test]
    fn dense_ids_resolve_by_position() {
        let mut t = table(&[0, 1, 2]);
        assert_eq!(t.position(JobId(2)), Some(2));
        assert_eq!(t.position(JobId(3)), None);
        assert_eq!(t.insert(JobId(1), 7), None);
        assert_eq!(t.insert(JobId(1), 8), Some(7));
        assert_eq!(t.get(&JobId(1)), Some(&Some(8)));
        assert_eq!(t[&JobId(1)], Some(8));
        assert_eq!(t.as_slice(), &[None, Some(8), None]);
        *t.get_mut(&JobId(1)).unwrap() = None;
        assert_eq!(t[&JobId(1)], None);
    }

    #[test]
    fn sparse_and_unordered_ids_fall_back_to_a_search() {
        let mut t = table(&[9, 5, 1]);
        assert_eq!(t.position(JobId(9)), Some(0));
        // Position 1 exists but holds job 5: the dense guess must not win.
        assert_eq!(t.position(JobId(1)), Some(2));
        assert_eq!(t.position(JobId(0)), None);
        t.insert(JobId(1), 4);
        let pairs: Vec<_> = t.iter().map(|(id, v)| (id.0, *v)).collect();
        assert_eq!(pairs, vec![(9, None), (5, None), (1, Some(4))]);
    }

    #[test]
    fn unknown_jobs_are_ignored_not_a_panic() {
        let mut t = table(&[0, 1]);
        assert_eq!(t.insert(JobId(70), 3), None);
        assert!(t.get(&JobId(70)).is_none());
        assert!(t.get_mut(&JobId(70)).is_none());
    }

    #[test]
    #[should_panic(expected = "not in app")]
    fn indexing_an_unknown_job_panics_like_a_map() {
        let t = table(&[0]);
        let _ = t[&JobId(4)];
    }
}
