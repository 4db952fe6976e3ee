//! The paper's two assessment scenarios as ready-made applications.
//!
//! MYRTUS validates its technologies on **Smart Mobility** (TNO + Canon)
//! and **Virtual Telerehabilitation** (UNICA + Reply). Neither use case
//! is publicly released, so these generators synthesize workloads with
//! the structure the paper describes: a vehicle/roadside perception
//! pipeline with bursty incident traffic, and a patient pose-estimation
//! pipeline with periodic camera frames and strict latency bounds.

use myrtus_continuum::net::Protocol;
use myrtus_continuum::node::Layer;
use myrtus_continuum::time::{SimDuration, SimTime};

use crate::arrival::ArrivalSpec;
use crate::tosca::{Application, Component, ComponentKind, SecurityTier};

pub mod federation;
pub mod programs;
pub mod surge;

/// Accelerator configuration ids used by the scenario kernels, shared
/// with the DPE (which "synthesizes" the matching bitstreams).
pub mod accel_cfg {
    /// Convolutional pose-estimation kernel.
    pub const POSE_CNN: u32 = 1;
    /// Object-detection kernel (vehicles, pedestrians).
    pub const DETECT_CNN: u32 = 2;
    /// Video pre-processing (resize / colour conversion).
    pub const PREPROC: u32 = 3;
    /// Sensor-fusion Kalman pipeline.
    pub const FUSION: u32 = 4;
}

/// Virtual Telerehabilitation: camera → pre-processing → pose estimation
/// → exercise scoring → session store, 30 fps for `seconds` seconds,
/// 80 ms end-to-end bound on the interactive stages, medium security
/// (health data).
pub fn telerehab_with(seconds: u64) -> Application {
    let frames = (seconds * 30) as usize;
    Application::new("telerehab", ArrivalSpec::periodic(SimDuration::from_micros(33_333), frames))
        .with_component(
            Component::new("camera", ComponentKind::Sensor)
                .with_work_mc(0.05)
                .with_preferred_layer(Layer::Edge),
        )
        .with_component(
            Component::new("preproc", ComponentKind::Function)
                .with_work_mc(1.2)
                .with_mem_mb(64)
                .with_accel(accel_cfg::PREPROC)
                .with_max_latency(SimDuration::from_millis(80))
                .with_security(SecurityTier::Medium),
        )
        .with_component(
            Component::new("pose", ComponentKind::Function)
                .with_work_mc(9.0)
                .with_mem_mb(256)
                .with_accel(accel_cfg::POSE_CNN)
                .with_max_latency(SimDuration::from_millis(80))
                .with_security(SecurityTier::Medium),
        )
        .with_component(
            Component::new("score", ComponentKind::Function)
                .with_work_mc(0.8)
                .with_mem_mb(32)
                .with_max_latency(SimDuration::from_millis(120))
                .with_security(SecurityTier::Medium),
        )
        .with_component(
            Component::new("session-store", ComponentKind::Storage)
                .with_work_mc(0.3)
                .with_mem_mb(128)
                .with_security(SecurityTier::High)
                .with_preferred_layer(Layer::Cloud),
        )
        .with_connection("camera", "preproc", 460_800, Protocol::Mqtt) // VGA frame
        .with_connection("preproc", "pose", 115_200, Protocol::Mqtt)
        .with_connection("pose", "score", 4_096, Protocol::Mqtt)
        .with_connection("score", "session-store", 1_024, Protocol::Http)
}

/// Default 10-second telerehabilitation session (300 frames).
pub fn telerehab() -> Application {
    telerehab_with(10)
}

/// Smart Mobility: roadside cameras and vehicle sensors feed detection
/// and fusion; incidents trigger bursts. Low per-message security but a
/// tight 50 ms bound on the detection loop.
pub fn smart_mobility_with(horizon: SimTime) -> Application {
    Application::new(
        "smart-mobility",
        ArrivalSpec::Burst {
            burst_len: 6,
            spacing: SimDuration::from_millis(5),
            burst_period: SimDuration::from_millis(200),
            horizon,
        },
    )
    .with_component(
        Component::new("roadside-cam", ComponentKind::Sensor)
            .with_work_mc(0.05)
            .with_preferred_layer(Layer::Edge),
    )
    .with_component(
        Component::new("detect", ComponentKind::Function)
            .with_work_mc(6.5)
            .with_mem_mb(192)
            .with_accel(accel_cfg::DETECT_CNN)
            .with_max_latency(SimDuration::from_millis(50)),
    )
    .with_component(
        Component::new("fusion", ComponentKind::Function)
            .with_work_mc(2.5)
            .with_mem_mb(96)
            .with_accel(accel_cfg::FUSION)
            .with_max_latency(SimDuration::from_millis(80)),
    )
    .with_component(
        Component::new("traffic-model", ComponentKind::Service)
            .with_work_mc(4.0)
            .with_mem_mb(512)
            .with_preferred_layer(Layer::Fog),
    )
    .with_component(
        Component::new("fleet-archive", ComponentKind::Storage)
            .with_work_mc(0.2)
            .with_mem_mb(64)
            .with_security(SecurityTier::Medium)
            .with_preferred_layer(Layer::Cloud),
    )
    .with_connection("roadside-cam", "detect", 230_400, Protocol::Coap)
    .with_connection("detect", "fusion", 8_192, Protocol::Mqtt)
    .with_connection("fusion", "traffic-model", 2_048, Protocol::Mqtt)
    .with_connection("traffic-model", "fleet-archive", 16_384, Protocol::Http)
}

/// Default 5-second smart-mobility window.
pub fn smart_mobility() -> Application {
    smart_mobility_with(SimTime::from_secs(5))
}

/// A synthetic CPU-bound batch-analytics job (cloud-friendly), used as
/// background load in the mixed experiments.
pub fn batch_analytics(jobs: usize, mean_interarrival: SimDuration) -> Application {
    Application::new("batch-analytics", ArrivalSpec::periodic(mean_interarrival, jobs))
        .with_component(Component::new("ingest", ComponentKind::Sensor).with_work_mc(0.5))
        .with_component(
            Component::new("crunch", ComponentKind::Function)
                .with_work_mc(400.0)
                .with_mem_mb(2_048)
                .with_preferred_layer(Layer::Cloud),
        )
        .with_component(Component::new("report", ComponentKind::Storage).with_work_mc(1.0))
        .with_connection("ingest", "crunch", 1_000_000, Protocol::Http)
        .with_connection("crunch", "report", 10_000, Protocol::Http)
}

/// The standard mixed workload of the orchestration experiments:
/// telerehab + smart mobility + background analytics, with distinct app
/// ids 0, 1, 2.
pub fn standard_mix(seconds: u64) -> Vec<Application> {
    vec![
        telerehab_with(seconds),
        smart_mobility_with(SimTime::from_secs(seconds)),
        batch_analytics((seconds / 2).max(1) as usize, SimDuration::from_secs(2)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_requests;
    use crate::graph::RequestDag;

    #[test]
    fn scenarios_validate() {
        telerehab().validate().expect("telerehab valid");
        smart_mobility().validate().expect("mobility valid");
        batch_analytics(5, SimDuration::from_secs(1)).validate().expect("batch valid");
    }

    #[test]
    fn telerehab_is_a_five_stage_chain() {
        let dag = RequestDag::from_application(&telerehab()).expect("valid");
        assert_eq!(dag.nodes().len(), 5);
        assert_eq!(dag.sources().len(), 1);
        assert_eq!(dag.sinks().len(), 1);
        assert_eq!(*dag.depths().iter().max().expect("non-empty"), 4);
    }

    #[test]
    fn telerehab_has_health_grade_security() {
        let app = telerehab();
        assert_eq!(app.max_security(), SecurityTier::High);
        assert_eq!(
            app.component("pose").expect("exists").requirements.security,
            SecurityTier::Medium
        );
    }

    #[test]
    fn mobility_bursts_compile() {
        let reqs = compile_requests(&smart_mobility(), 1, 0, None).expect("valid");
        assert!(!reqs.is_empty());
        // Burst arrivals: first six spaced 5 ms apart.
        assert_eq!(reqs[1].released - reqs[0].released, SimDuration::from_millis(5));
    }

    #[test]
    fn standard_mix_has_three_distinct_apps() {
        let mix = standard_mix(4);
        assert_eq!(mix.len(), 3);
        let names: std::collections::BTreeSet<&str> = mix.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn profiles_round_trip_for_all_scenarios() {
        for app in standard_mix(2) {
            let text = app.to_profile();
            let parsed = Application::from_profile(&text).expect("parses");
            assert_eq!(parsed, app, "{}", app.name);
        }
    }
}
