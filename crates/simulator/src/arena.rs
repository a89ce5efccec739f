//! The dense app arena.
//!
//! The engine used to keep its per-app runtime state in a
//! `BTreeMap<AppId, AppRuntime>`, paying an ordered-tree walk on every
//! lookup and every per-round iteration. App ids are dense (trace
//! generators and builders assign them from zero), so [`AppArena`] stores
//! runtimes in a flat `Vec<Option<AppRuntime>>` indexed by app id: O(1)
//! lookup, cache-friendly in-order iteration, and — like the map it
//! replaces — iteration is always ascending by app id, which the
//! simulator's determinism guarantees rely on.

use crate::app_runtime::AppRuntime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Index, IndexMut};
use themis_cluster::ids::AppId;
use themis_cluster::time::Time;

/// Dense id-indexed storage for every app's runtime state.
///
/// Beside the slots the arena files every app under one of three lifecycle
/// lists — waiting to arrive, active (arrived and unfinished), finished — so
/// the engine's per-round passes walk the active apps only and "is anything
/// left to run" is a length check. Inserting files an app as waiting; the
/// engine moves it on as its clock and the app's jobs advance.
#[derive(Default)]
pub struct AppArena {
    slots: Vec<Option<AppRuntime>>,
    count: usize,
    /// Apps the engine has not seen arrive yet, earliest `(arrival, id)` on
    /// top.
    waiting: BinaryHeap<Reverse<(Time, AppId)>>,
    /// Arrived, unfinished apps in ascending id order.
    active: Vec<AppId>,
    /// Finished apps still in the arena, in no particular order.
    finished: Vec<AppId>,
}

impl std::fmt::Debug for AppArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppArena")
            .field("apps", &self.count)
            .field("capacity", &self.slots.len())
            .field("active", &self.active.len())
            .finish()
    }
}

impl AppArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an arena from pre-built runtimes. A runtime with a duplicate
    /// app id replaces the earlier one (matching `BTreeMap::insert`).
    pub fn from_runtimes(runtimes: impl IntoIterator<Item = AppRuntime>) -> Self {
        let mut arena = AppArena::new();
        for rt in runtimes {
            arena.insert(rt);
        }
        arena
    }

    /// Inserts a runtime at its own app id, returning any replaced runtime.
    pub fn insert(&mut self, rt: AppRuntime) -> Option<AppRuntime> {
        let id = rt.id();
        let old = self.remove(id);
        if id.index() >= self.slots.len() {
            self.slots.resize_with(id.index() + 1, || None);
        }
        if rt.finished_at.is_some() {
            self.finished.push(id);
        } else {
            self.waiting.push(Reverse((rt.spec.arrival, id)));
        }
        self.slots[id.index()] = Some(rt);
        self.count += 1;
        old
    }

    /// Removes and returns an app's runtime, if present. The slot stays
    /// reserved (app ids are never reused), so later inserts and lookups
    /// keep their O(1) index math.
    pub fn remove(&mut self, app: AppId) -> Option<AppRuntime> {
        let taken = self.slots.get_mut(app.index()).and_then(Option::take)?;
        self.count -= 1;
        if let Ok(pos) = self.active.binary_search(&app) {
            self.active.remove(pos);
        } else if let Some(pos) = self.finished.iter().position(|id| *id == app) {
            self.finished.swap_remove(pos);
        } else {
            self.waiting.retain(|Reverse((_, id))| *id != app);
        }
        Some(taken)
    }

    /// Arrived, unfinished apps in ascending id order, as of the engine's
    /// last scheduling round.
    pub fn active_ids(&self) -> &[AppId] {
        &self.active
    }

    /// The runtimes of [`AppArena::active_ids`], in the same order.
    pub fn active(&self) -> impl Iterator<Item = &AppRuntime> {
        self.active.iter().map(|id| &self[*id])
    }

    /// Number of apps that have not finished (arrived or not), as of the
    /// engine's last scheduling round. O(1).
    pub fn unfinished(&self) -> usize {
        self.waiting.len() + self.active.len()
    }

    /// Moves every waiting app that has arrived by `now` to the active list.
    pub(crate) fn activate_arrived(&mut self, now: Time) {
        while let Some(Reverse((arrival, id))) = self.waiting.peek().copied() {
            if arrival > now {
                break;
            }
            self.waiting.pop();
            if let Err(pos) = self.active.binary_search(&id) {
                self.active.insert(pos, id);
            }
        }
    }

    /// Moves every active app whose `finished_at` is set to the finished
    /// list.
    pub(crate) fn settle_finished(&mut self) {
        let (slots, finished) = (&self.slots, &mut self.finished);
        self.active.retain(|id| {
            let done = slots[id.index()]
                .as_ref()
                .is_some_and(|rt| rt.finished_at.is_some());
            if done {
                finished.push(*id);
            }
            !done
        });
    }

    /// Removes and returns every finished app, in ascending id order.
    pub(crate) fn take_finished(&mut self) -> Vec<AppRuntime> {
        let mut ids = std::mem::take(&mut self.finished);
        ids.sort_unstable();
        self.count -= ids.len();
        ids.into_iter()
            .map(|id| self.slots[id.index()].take().expect("filed app is present"))
            .collect()
    }

    /// Number of apps in the arena.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` if the arena holds no apps.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether an app is present.
    pub fn contains(&self, app: AppId) -> bool {
        self.get(app).is_some()
    }

    /// The runtime for an app, if present.
    pub fn get(&self, app: AppId) -> Option<&AppRuntime> {
        self.slots.get(app.index()).and_then(Option::as_ref)
    }

    /// Mutable access to the runtime for an app, if present.
    pub fn get_mut(&mut self, app: AppId) -> Option<&mut AppRuntime> {
        self.slots.get_mut(app.index()).and_then(Option::as_mut)
    }

    /// Iterates over every runtime in ascending app-id order.
    pub fn iter(&self) -> impl Iterator<Item = &AppRuntime> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Mutably iterates over every runtime in ascending app-id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut AppRuntime> {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }
}

impl Index<AppId> for AppArena {
    type Output = AppRuntime;
    fn index(&self, app: AppId) -> &AppRuntime {
        self.get(app)
            .unwrap_or_else(|| panic!("app {app} not in arena"))
    }
}

impl IndexMut<AppId> for AppArena {
    fn index_mut(&mut self, app: AppId) -> &mut AppRuntime {
        self.get_mut(app)
            .unwrap_or_else(|| panic!("app {app} not in arena"))
    }
}

impl FromIterator<AppRuntime> for AppArena {
    fn from_iter<T: IntoIterator<Item = AppRuntime>>(iter: T) -> Self {
        AppArena::from_runtimes(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_cluster::ids::JobId;
    use themis_cluster::time::Time;
    use themis_workload::app::AppSpec;
    use themis_workload::job::JobSpec;
    use themis_workload::models::ModelArch;

    fn rt(id: u32) -> AppRuntime {
        let job = JobSpec::new(JobId(0), ModelArch::ResNet50, 100.0, Time::minutes(0.1), 2);
        AppRuntime::with_default_hpo(AppSpec::single_job(AppId(id), Time::ZERO, job))
    }

    #[test]
    fn insert_get_and_iterate_in_id_order() {
        let arena = AppArena::from_runtimes([rt(5), rt(0), rt(3)]);
        assert_eq!(arena.len(), 3);
        assert!(!arena.is_empty());
        assert!(arena.contains(AppId(3)));
        assert!(!arena.contains(AppId(1)));
        assert_eq!(arena.get(AppId(5)).unwrap().id(), AppId(5));
        assert!(arena.get(AppId(99)).is_none());
        let ids: Vec<AppId> = arena.iter().map(|rt| rt.id()).collect();
        assert_eq!(ids, vec![AppId(0), AppId(3), AppId(5)]);
        assert_eq!(arena[AppId(0)].id(), AppId(0));
    }

    #[test]
    fn remove_retires_an_app_and_keeps_the_slot_reserved() {
        let mut arena = AppArena::from_runtimes([rt(0), rt(1), rt(2)]);
        let removed = arena.remove(AppId(1)).expect("app 1 present");
        assert_eq!(removed.id(), AppId(1));
        assert_eq!(arena.len(), 2);
        assert!(!arena.contains(AppId(1)));
        assert!(arena.remove(AppId(1)).is_none());
        assert!(arena.remove(AppId(99)).is_none());
        let ids: Vec<AppId> = arena.iter().map(|rt| rt.id()).collect();
        assert_eq!(ids, vec![AppId(0), AppId(2)]);
        // The slot is still addressable: a later insert at the same id works.
        assert!(arena.insert(rt(1)).is_none());
        assert_eq!(arena.len(), 3);
    }

    fn rt_at(id: u32, arrival: f64) -> AppRuntime {
        let mut rt = rt(id);
        rt.spec.arrival = Time::minutes(arrival);
        rt
    }

    #[test]
    fn apps_move_from_waiting_to_active_to_finished() {
        let mut arena = AppArena::from_runtimes([rt_at(4, 10.0), rt_at(1, 10.0), rt_at(2, 30.0)]);
        assert_eq!(arena.unfinished(), 3);
        assert!(arena.active_ids().is_empty());
        arena.activate_arrived(Time::minutes(9.0));
        assert!(arena.active_ids().is_empty());
        // Everything due by `now` arrives at once, in id order.
        arena.activate_arrived(Time::minutes(10.0));
        assert_eq!(arena.active_ids(), [AppId(1), AppId(4)]);
        arena.activate_arrived(Time::minutes(40.0));
        assert_eq!(arena.active_ids(), [AppId(1), AppId(2), AppId(4)]);
        let active: Vec<AppId> = arena.active().map(|rt| rt.id()).collect();
        assert_eq!(active, arena.active_ids());

        arena[AppId(4)].finished_at = Some(Time::minutes(41.0));
        arena[AppId(1)].finished_at = Some(Time::minutes(42.0));
        arena.settle_finished();
        assert_eq!(arena.active_ids(), [AppId(2)]);
        assert_eq!(arena.unfinished(), 1);
        assert_eq!(arena.len(), 3, "finished apps stay until taken");
        let taken: Vec<AppId> = arena.take_finished().iter().map(|rt| rt.id()).collect();
        assert_eq!(taken, [AppId(1), AppId(4)], "id order, not finish order");
        assert_eq!(arena.len(), 1);
        assert!(arena.take_finished().is_empty());
    }

    #[test]
    fn remove_and_replace_keep_the_lifecycle_lists_exact() {
        let mut arena = AppArena::from_runtimes([rt_at(0, 0.0), rt_at(1, 0.0), rt_at(2, 5.0)]);
        arena.activate_arrived(Time::ZERO);
        arena[AppId(1)].finished_at = Some(Time::ZERO);
        arena.settle_finished();
        // One app in each list; remove them all.
        assert!(arena.remove(AppId(0)).is_some());
        assert!(arena.remove(AppId(1)).is_some());
        assert!(arena.remove(AppId(2)).is_some());
        assert_eq!((arena.len(), arena.unfinished()), (0, 0));
        arena.activate_arrived(Time::minutes(99.0));
        assert!(arena.active_ids().is_empty() && arena.take_finished().is_empty());
        // Replacing an active app files the newcomer as waiting again.
        arena.insert(rt_at(3, 0.0));
        arena.activate_arrived(Time::ZERO);
        assert!(arena.insert(rt_at(3, 7.0)).is_some());
        assert!(arena.active_ids().is_empty());
        assert_eq!(arena.unfinished(), 1);
        arena.activate_arrived(Time::minutes(7.0));
        assert_eq!(arena.active_ids(), [AppId(3)]);
    }

    #[test]
    fn duplicate_ids_replace_like_a_map() {
        let mut arena = AppArena::new();
        assert!(arena.insert(rt(2)).is_none());
        let replaced = arena.insert(rt(2)).expect("second insert replaces");
        assert_eq!(replaced.id(), AppId(2));
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn mutable_iteration_touches_every_app() {
        let mut arena: AppArena = [rt(0), rt(1)].into_iter().collect();
        for rt in arena.iter_mut() {
            rt.attained_service = Time::minutes(7.0);
        }
        assert!(arena
            .iter()
            .all(|r| r.attained_service == Time::minutes(7.0)));
        arena[AppId(1)].attained_service = Time::minutes(9.0);
        assert_eq!(
            arena.get_mut(AppId(1)).unwrap().attained_service,
            Time::minutes(9.0)
        );
    }

    #[test]
    #[should_panic(expected = "not in arena")]
    fn indexing_a_missing_app_panics() {
        let arena = AppArena::new();
        let _ = &arena[AppId(0)];
    }
}
