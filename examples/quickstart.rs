//! Quickstart: one Themis auction round, step by step.
//!
//! Builds a small cluster, two apps, and walks through the five steps of a
//! Themis scheduling round (§3.1 of the paper): probe ρ, offer resources to
//! the worst-off apps, collect bids, run the partial-allocation auction,
//! and hand out the winning GPUs.
//!
//! Run with: `cargo run -p themis-bench --example quickstart`

use themis_cluster::prelude::*;
use themis_core::agent::Agent;
use themis_core::arbiter::{AppStatus, Arbiter};
use themis_core::config::ThemisConfig;
use themis_sim::app_runtime::AppRuntime;
use themis_workload::prelude::*;

fn main() {
    // A cluster with two racks of two 4-GPU machines each.
    let cluster = Cluster::new(ClusterSpec::homogeneous(2, 2, 4));
    println!(
        "cluster: {} GPUs on {} machines in {} racks",
        cluster.total_gpus(),
        cluster.spec().total_machines(),
        cluster.spec().total_racks()
    );

    // Two single-job apps: a placement-sensitive VGG16 app and a
    // placement-insensitive ResNet50 app, both wanting 4 GPUs.
    let mut vgg_job = JobSpec::new(JobId(0), ModelArch::Vgg16, 2000.0, Time::minutes(0.05), 4);
    vgg_job.gpus_per_task = 4;
    let resnet_job = JobSpec::new(JobId(0), ModelArch::ResNet50, 1000.0, Time::minutes(0.1), 4);
    let apps = [
        AppRuntime::with_default_hpo(AppSpec::single_job(AppId(0), Time::ZERO, vgg_job)),
        AppRuntime::with_default_hpo(AppSpec::single_job(AppId(1), Time::ZERO, resnet_job)),
    ];

    let config = ThemisConfig::default().with_fairness_knob(0.0); // offer to everyone
    let mut arbiter = Arbiter::new(config);
    let now = Time::minutes(5.0);

    // Step 1-2: probe every Agent for its current finish-time fairness.
    let mut agents: Vec<Agent> = apps.iter().map(|a| Agent::new(a.id(), &config)).collect();
    let statuses: Vec<AppStatus> = apps
        .iter()
        .zip(&agents)
        .map(|(rt, agent)| {
            let rho = agent.current_rho(now, rt, &cluster).rho;
            println!("{}: current rho = {rho:.2}", rt.id());
            AppStatus {
                app: rt.id(),
                rho,
                unmet_demand: rt.unmet_demand(&cluster),
                footprint: cluster.gpus_of_app(rt.id()).machines(cluster.spec()),
            }
        })
        .collect();

    // Step 3: offer the free GPUs to the worst-off 1-f fraction of apps.
    let participants = arbiter.select_participants(&statuses);
    let offer = cluster.free_vector();
    println!(
        "offering {} GPUs to {} participants: {participants:?}",
        offer.total(),
        participants.len()
    );

    // Step 4: each participating Agent prepares a bid table.
    let bids: Vec<_> = participants
        .iter()
        .map(|app| {
            let idx = app.index();
            let bid = agents[idx].prepare_bid(now, &apps[idx], &cluster, &offer);
            println!(
                "{app}: bid table with {} entries, best rho {:.2}",
                bid.len(),
                bid.best_entry().map(|e| e.rho).unwrap_or(f64::NAN)
            );
            bid
        })
        .collect();

    // Step 5: run the partial-allocation auction and report the winners.
    let outcome = arbiter.run_auction(&offer, &statuses, &participants, &bids, cluster.spec());
    let leftover = outcome.auction.leftover.total();
    for award in &outcome.auction.awards {
        println!(
            "{}: proportional-fair {} GPUs, hidden-payment factor {:.2}",
            award.app,
            award.proportional_fair.total(),
            award.payment_factor
        );
    }
    for (app, grant) in outcome.into_all_grants() {
        println!(
            "{app} wins {} GPUs: {:?}",
            grant.total(),
            grant.iter().collect::<Vec<_>>()
        );
    }
    println!("{leftover} GPUs left unallocated by the auction were handed out work-conservingly");
}
