//! Reproduces paper Fig. 3: the MIRTO Cognitive Engine agent. Traces one
//! deployment request through the agent's blocks — API daemon,
//! Authentication Module, TOSCA Validation Processor, MIRTO Manager
//! (four drivers), KB proxy and deployment proxy — then shows the
//! inter-agent negotiation and one MAPE-K round.

use myrtus::continuum::monitor::MonitoringReport;
use myrtus::continuum::net::{PlanEstimator, RouteCache};
use myrtus::continuum::time::SimTime;
use myrtus::continuum::topology::ContinuumBuilder;
use myrtus::kb::KnowledgeBase;
use myrtus::mirto::agent::{auction, layer_agents, OffloadQuery};
use myrtus::mirto::api::{ApiDaemon, ApiRequest, ApiResponse, Operation};
use myrtus::mirto::managers::node::NodeManager;
use myrtus::mirto::managers::privsec::PrivacySecurityManager;
use myrtus::mirto::managers::wl::WlManager;
use myrtus::mirto::placement::PlanContext;
use myrtus::mirto::policies::GreedyBestFit;
use myrtus::security::suite::SecurityLevel;
use myrtus::workload::graph::RequestDag;
use myrtus::workload::scenarios;

fn main() {
    println!("== Figure 3 — one request through the MIRTO agent ==\n");
    let mut continuum = ContinuumBuilder::new().build();

    // [MIRTO API Daemon] + [Authentication Module]
    let mut api = ApiDaemon::new(b"agent-secret");
    let token = api.authenticator().issue("operator", &["deploy"], SimTime::from_secs(60));
    println!("[api-daemon]      token issued for operator (scope: deploy)");

    // Rejected first: a forged token exercises the authentication module.
    let forged = ApiDaemon::new(b"other").authenticator().issue(
        "mallory",
        &["deploy"],
        SimTime::from_secs(60),
    );
    let rejected = api
        .handle(&ApiRequest { token: forged, operation: Operation::Status }, SimTime::ZERO)
        .is_err();
    println!("[authn-module]    forged token rejected = {rejected}");

    // [TOSCA Validation Processor]
    let profile = scenarios::telerehab_with(1).to_profile();
    let resp = api
        .handle(&ApiRequest { token, operation: Operation::Deploy { profile } }, SimTime::ZERO)
        .expect("valid deployment");
    let ApiResponse::Accepted { application, .. } = resp else { unreachable!() };
    println!(
        "[tosca-validator] {:?} validated: {} components, {} connections",
        application.name,
        application.components.len(),
        application.connections.len()
    );

    // [KB proxy] — sense.
    let mut kb = KnowledgeBase::new();
    let report = MonitoringReport::collect(continuum.sim());
    kb.ingest_report(&report, |_| 2);
    println!("[kb-proxy]        registry holds {} component records", kb.registry().all().len());

    // [MIRTO Manager] — the four drivers.
    let dag = RequestDag::from_application(&application).expect("valid");
    let sec = PrivacySecurityManager::new(true);
    let candidates = sec.candidates(continuum.sim(), &application, &dag, None);
    println!(
        "[privsec-manager] candidate nodes per component: {:?}",
        candidates.iter().map(Vec::len).collect::<Vec<_>>()
    );
    let mut wl = WlManager::new(Box::new(GreedyBestFit::new()));
    let cache = RouteCache::new();
    let placement = {
        let ctx = PlanContext::new(continuum.sim(), &kb, &application, &dag, candidates, &cache);
        wl.deploy(0, &ctx).expect("placeable")
    };
    for n in dag.nodes().iter() {
        let host = placement.node_of(n.component_idx);
        let name = continuum.sim().node(host).expect("exists").spec().name().to_string();
        println!("[wl-manager]      {:14} → {}", n.name, name);
    }
    let mut node_mgr = NodeManager::new();
    let decisions = node_mgr.adapt(continuum.sim_mut()).expect("ok");
    println!("[node-manager]    idle-node operating-point decisions: {}", decisions.len());

    // [Deployment proxy / negotiation] — inter-agent auction for an
    // offloadable stage.
    let agents = layer_agents(&continuum);
    let sim = continuum.sim();
    let win = auction(
        &agents,
        sim,
        &PlanEstimator::new(sim.network(), sim.now(), &cache),
        &OffloadQuery {
            data_at: continuum.edge()[0],
            work_mc: 9.0,
            input_bytes: 115_200,
            mem_mb: 256,
            min_level: SecurityLevel::Medium,
        },
    )
    .expect("bids arrive");
    println!(
        "[negotiation]     pose-stage auction won by {} agent (node {}, ETA {:.2} ms)",
        win.layer,
        win.node,
        win.est_completion.as_millis_f64()
    );

    println!(
        "\nMAPE-K loop: sense(monitoring→KB) → evaluate(registry/trust) → decide(4 managers) →\n\
         reconfigure(placement, op-points, routes) — exercised end-to-end by exp_orchestration."
    );
}
