//! What a warm Themis policy call allocates, counted by a global allocator.
//!
//! `ThemisScheduler` keeps every buffer a call reads through — the probes'
//! estimates and holdings, the statuses, a pool of bid tables, the search's
//! one remaining offer, the award split — so a warm call allocates for the
//! decisions it returns, not for the apps, jobs, bid rows or search nodes it
//! reads. The actor runtime answers each ρ query and offer through one
//! `AgentBuffers` it keeps, so a warm query plus bid allocates for the table
//! it sends, not for the jobs it reads. The engine's lease table keeps its
//! slots and expiry queue, so a warm grant / revoke / reclaim cycle
//! allocates for the list of reclaimed leases, not per GPU. The assertions
//! are structural: two states that differ only in what is read must cost
//! the same number of allocations, whatever that number is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::{AppId, GpuId, JobId};
use themis_cluster::lease::{Lease, LeaseTable};
use themis_cluster::time::Time;
use themis_cluster::topology::ClusterSpec;
use themis_core::agent::{Agent, AgentBuffers};
use themis_core::config::ThemisConfig;
use themis_core::scheduler::ThemisScheduler;
use themis_sim::app_runtime::AppRuntime;
use themis_sim::arena::AppArena;
use themis_sim::scheduler::{AllocationDecision, Scheduler};
use themis_workload::app::AppSpec;
use themis_workload::job::JobSpec;
use themis_workload::models::ModelArch;

thread_local! {
    /// Heap requests made by this thread; the test harness runs tests on
    /// threads of their own, so one test never sees another's.
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// per thread.
struct Counting;

fn note() {
    // `try_with`: a thread being torn down still frees memory.
    let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state and is const-initialized, so counting never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A frozen scheduling state.
struct State {
    cluster: Cluster,
    apps: AppArena,
}

fn app(id: u32, jobs: u32, max_parallelism: usize) -> AppRuntime {
    let jobs = (0..jobs)
        .map(|job| {
            JobSpec::new(
                JobId(job),
                ModelArch::ResNet50,
                1000.0,
                Time::minutes(0.1),
                max_parallelism,
            )
        })
        .collect();
    AppRuntime::with_default_hpo(AppSpec::new(AppId(id), Time::ZERO, jobs))
}

/// The second of two calls on one scheduler (the first warms its buffers):
/// its heap requests and its decisions.
fn warm_call(config: ThemisConfig, state: &State) -> (u64, Vec<AllocationDecision>) {
    let mut themis = ThemisScheduler::new(config);
    let now = Time::minutes(10.0);
    themis.schedule(now, &state.cluster, &state.apps);
    let before = REQUESTS.with(Cell::get);
    let decisions = themis.schedule(now, &state.cluster, &state.apps);
    (REQUESTS.with(Cell::get) - before, decisions)
}

/// Three apps, each holding one GPU on a machine of its own with 31 more
/// free there, and wanting `rows` more: every app bids `rows` rows on its
/// own machine, the exact solver searches `(rows + 1)³` combinations
/// (17³ = 4,913 at 16 rows, within its 20,000 cap), nobody contends, and
/// each app wins its whole table.
fn exact_solver_state(rows: usize) -> State {
    let mut cluster = Cluster::new(ClusterSpec::homogeneous(1, 3, 32));
    let apps: Vec<AppRuntime> = (0..3).map(|id| app(id, 1, rows + 1)).collect();
    for id in 0..3u32 {
        let lease = Time::minutes(1e6);
        let gpu = GpuId(id * 32);
        cluster
            .allocate(gpu, AppId(id), JobId(0), Time::ZERO, lease)
            .unwrap();
    }
    State {
        cluster,
        apps: AppArena::from_runtimes(apps),
    }
}

/// An empty 8-GPU machine and `apps` apps of `jobs` identical jobs each.
fn empty_cluster_state(apps: u32, jobs: u32, max_parallelism: usize) -> State {
    State {
        cluster: Cluster::new(ClusterSpec::homogeneous(1, 1, 8)),
        apps: (0..apps).map(|id| app(id, jobs, max_parallelism)).collect(),
    }
}

/// Decisions as `(app, job, GPUs)`.
fn shape(decisions: &[AllocationDecision]) -> Vec<(AppId, JobId, usize)> {
    decisions
        .iter()
        .map(|d| (d.app, d.job, d.gpus.len()))
        .collect()
}

#[test]
fn bid_rows_and_search_nodes_cost_no_allocation() {
    let config = ThemisConfig::default().with_fairness_knob(0.0);
    let (short, short_decisions) = warm_call(config, &exact_solver_state(4));
    let (long, long_decisions) = warm_call(config, &exact_solver_state(16));
    let expected = |rows| {
        (0..3)
            .map(|id| (AppId(id), JobId(0), rows))
            .collect::<Vec<_>>()
    };
    assert_eq!(shape(&short_decisions), expected(4));
    assert_eq!(shape(&long_decisions), expected(16));
    // 4 rows against 16 per bidder, 125 search leaves against 4,913 (and
    // as many again per leave-one-out re-solve): the same allocations.
    assert_eq!(short, long, "allocations grow with rows or search nodes");
}

#[test]
fn allocations_follow_the_decisions_not_apps_times_jobs() {
    // f = 1: the one worst-off app (the lowest id, all ρ being unbounded)
    // bids alone for the machine and wins it; nothing is left over.
    let config = ThemisConfig::default().with_fairness_knob(1.0);
    // Jobs of parallelism 8 take the whole machine: one decision.
    let mut one = Vec::new();
    for (apps, jobs) in [(2, 1), (8, 4), (32, 16)] {
        let (requests, decisions) = warm_call(config, &empty_cluster_state(apps, jobs, 8));
        assert_eq!(shape(&decisions), vec![(AppId(0), JobId(0), 8)]);
        one.push(requests);
    }
    assert!(
        one.windows(2).all(|w| w[0] == w[1]),
        "2 × 1, 8 × 4 and 32 × 16 apps × jobs cost {one:?} allocations"
    );
    // Jobs of parallelism 1 take one GPU each: eight decisions.
    let mut eight = Vec::new();
    for (apps, jobs) in [(2, 8), (32, 16)] {
        let (requests, decisions) = warm_call(config, &empty_cluster_state(apps, jobs, 1));
        let expected: Vec<_> = (0..8).map(|job| (AppId(0), JobId(job), 1)).collect();
        assert_eq!(shape(&decisions), expected);
        eight.push(requests);
    }
    assert_eq!(eight[0], eight[1], "apps × jobs cost allocations");
    assert!(
        eight[0] > one[0],
        "eight decisions ({}) cost no more than one ({})",
        eight[0],
        one[0]
    );
}

#[test]
fn actor_probe_and_bid_cost_no_allocation_per_job() {
    // One app on an empty 8-GPU machine, jobs of parallelism 8: a table of
    // eight rows, however many jobs the app has.
    let now = Time::minutes(10.0);
    let mut requests = Vec::new();
    for jobs in [2, 16] {
        let state = empty_cluster_state(1, jobs, 8);
        let runtime = state.apps.get(AppId(0)).expect("app 0 exists");
        let offer = state.cluster.free_vector();
        let mut agent = Agent::new(AppId(0), &ThemisConfig::default());
        let mut buffers = AgentBuffers::default();
        let mut query_and_bid = || {
            buffers.current_rho(now, runtime, &state.cluster);
            buffers.prepare_bid(&mut agent, now, runtime, &state.cluster, &offer)
        };
        query_and_bid();
        let before = REQUESTS.with(Cell::get);
        let table = query_and_bid();
        requests.push(REQUESTS.with(Cell::get) - before);
        assert_eq!(table.len(), 8);
    }
    assert_eq!(
        requests[0], requests[1],
        "2 and 16 jobs cost {requests:?} allocations"
    );
}

/// One lease round over `gpus` GPUs, as the engine runs it: every GPU
/// granted until `round`'s expiry, half of them released early, the rest
/// reclaimed when they expire.
fn lease_round(table: &mut LeaseTable, gpus: u32, round: u32) {
    let granted_at = Time::minutes(20.0 * f64::from(round));
    let expires_at = granted_at + Time::minutes(20.0);
    for gpu in 0..gpus {
        table.grant(Lease {
            gpu: GpuId(gpu),
            app: AppId(gpu % 3),
            job: JobId(0),
            granted_at,
            expires_at,
        });
    }
    for gpu in (0..gpus).step_by(2) {
        table.revoke(GpuId(gpu));
    }
    let reclaimed = table.reclaim_expired(expires_at);
    assert_eq!(reclaimed.len(), gpus as usize / 2);
    assert!(table.is_empty());
}

#[test]
fn a_warm_lease_round_costs_no_allocation_per_gpu() {
    let mut requests = Vec::new();
    for gpus in [8, 64] {
        let mut table = LeaseTable::new();
        lease_round(&mut table, gpus, 0);
        let before = REQUESTS.with(Cell::get);
        lease_round(&mut table, gpus, 1);
        requests.push(REQUESTS.with(Cell::get) - before);
    }
    assert_eq!(
        requests[0], requests[1],
        "8 and 64 GPUs cost {requests:?} allocations"
    );
}
