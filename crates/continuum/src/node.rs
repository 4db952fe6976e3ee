//! Computing-node models for the three continuum layers (paper Fig. 2).
//!
//! The *Edge Layer* holds commercial multicores, HMPSoC FPGA-accelerated
//! devices and adaptive RISC-V processors; the *Fog Layer* holds smart
//! gateways and Fog Micro Data Centers (FMDC); the *Cloud Layer* holds
//! high-capacity servers. Each node is described by an immutable
//! [`NodeSpec`] and simulated through a mutable [`NodeState`].

use crate::energy::{EnergyMeter, OperatingPoint, OperatingPointSet};
use crate::ids::{NodeId, TaskId};
use crate::task::TaskInstance;
use crate::time::{SimDuration, SimTime};

/// The continuum layer a node belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Devices close to the data source: sensors, HMPSoCs, RISC-V boards.
    Edge,
    /// Intermediate aggregation: smart gateways and fog micro data centers.
    Fog,
    /// Remote datacenters with intensive compute and long-term storage.
    Cloud,
}

impl Layer {
    /// All layers, edge first.
    pub const ALL: [Layer; 3] = [Layer::Edge, Layer::Fog, Layer::Cloud];

    /// Static lowercase label (`"edge"`, `"fog"`, `"cloud"`), usable as
    /// a metric series label.
    pub const fn label(self) -> &'static str {
        match self {
            Layer::Edge => "edge",
            Layer::Fog => "fog",
            Layer::Cloud => "cloud",
        }
    }

    /// Position of this layer in [`Layer::ALL`].
    pub const fn index(self) -> usize {
        match self {
            Layer::Edge => 0,
            Layer::Fog => 1,
            Layer::Cloud => 2,
        }
    }
}

impl std::fmt::Display for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Concrete hardware family of a node, matching the components the paper
/// enumerates per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Commercial multicore at the edge.
    EdgeMulticore,
    /// Heterogeneous MPSoC with FPGA fabric (runtime-reconfigurable
    /// accelerator regions).
    EdgeHmpsoc,
    /// Adaptive RISC-V processor with custom computing units.
    EdgeRiscv,
    /// Multi-sensor smart gateway (fog): hub + light local processing.
    FogGateway,
    /// Fog Micro Data Center: disaggregated hyper-converged servers.
    FogFmdc,
    /// Cloud datacenter server.
    CloudServer,
}

impl NodeKind {
    /// The layer this kind of node lives in.
    pub fn layer(self) -> Layer {
        match self {
            NodeKind::EdgeMulticore | NodeKind::EdgeHmpsoc | NodeKind::EdgeRiscv => Layer::Edge,
            NodeKind::FogGateway | NodeKind::FogFmdc => Layer::Fog,
            NodeKind::CloudServer => Layer::Cloud,
        }
    }
}

impl std::fmt::Display for NodeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NodeKind::EdgeMulticore => "edge-multicore",
            NodeKind::EdgeHmpsoc => "edge-hmpsoc",
            NodeKind::EdgeRiscv => "edge-riscv",
            NodeKind::FogGateway => "fog-gateway",
            NodeKind::FogFmdc => "fog-fmdc",
            NodeKind::CloudServer => "cloud-server",
        };
        f.write_str(s)
    }
}

/// FPGA / CGRA accelerator fabric attached to a node.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorSpec {
    regions: u32,
    speedup: f64,
    reconfig: SimDuration,
}

impl AcceleratorSpec {
    /// Creates a fabric with `regions` independently reconfigurable regions,
    /// a default `speedup` over software execution and a partial
    /// reconfiguration latency.
    ///
    /// # Panics
    ///
    /// Panics if `regions` is zero or `speedup` is not positive.
    pub fn new(regions: u32, speedup: f64, reconfig: SimDuration) -> Self {
        assert!(regions > 0, "accelerator needs at least one region");
        assert!(speedup > 0.0, "speedup must be positive");
        AcceleratorSpec { regions, speedup, reconfig }
    }

    /// Number of reconfigurable regions.
    pub fn regions(&self) -> u32 {
        self.regions
    }

    /// Default accelerator speedup over software execution.
    pub fn speedup(&self) -> f64 {
        self.speedup
    }

    /// Partial-reconfiguration latency for loading a new bitstream.
    pub fn reconfig(&self) -> SimDuration {
        self.reconfig
    }
}

/// Immutable description of a computing node.
///
/// Build one with [`NodeSpec::builder`] or use a per-kind preset:
///
/// ```
/// use myrtus_continuum::node::NodeSpec;
///
/// let hmpsoc = NodeSpec::preset_edge_hmpsoc("cam-0");
/// assert!(hmpsoc.accelerator().is_some());
/// let cloud = NodeSpec::preset_cloud_server("dc-0");
/// assert!(cloud.cores() > hmpsoc.cores());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    name: String,
    kind: NodeKind,
    cores: u32,
    speed_mhz: f64,
    mem_mb: u64,
    accelerator: Option<AcceleratorSpec>,
    points: OperatingPointSet,
}

impl NodeSpec {
    /// Starts building a node spec.
    pub fn builder(name: impl Into<String>, kind: NodeKind) -> NodeSpecBuilder {
        NodeSpecBuilder {
            name: name.into(),
            kind,
            cores: 2,
            speed_mhz: 1_000.0,
            mem_mb: 1_024,
            accelerator: None,
            points: None,
        }
    }

    /// Preset: quad-core ARM-class edge board.
    pub fn preset_edge_multicore(name: impl Into<String>) -> NodeSpec {
        NodeSpec::builder(name, NodeKind::EdgeMulticore)
            .cores(4)
            .speed_mhz(1_500.0)
            .mem_mb(4_096)
            .points(OperatingPointSet::new(vec![
                OperatingPoint::new("nominal", 1.0, 6.0, 1.5),
                OperatingPoint::new("eco", 0.6, 3.0, 1.0),
            ]))
            .build()
    }

    /// Preset: HMPSoC with dual cores plus a 4-region FPGA fabric.
    pub fn preset_edge_hmpsoc(name: impl Into<String>) -> NodeSpec {
        NodeSpec::builder(name, NodeKind::EdgeHmpsoc)
            .cores(2)
            .speed_mhz(1_200.0)
            .mem_mb(2_048)
            .accelerator(AcceleratorSpec::new(4, 12.0, SimDuration::from_millis(8)))
            .points(OperatingPointSet::new(vec![
                OperatingPoint::new("nominal", 1.0, 7.0, 2.0),
                OperatingPoint::new("low-power", 0.5, 3.2, 1.2),
            ]))
            .build()
    }

    /// Preset: adaptive RISC-V core with a small 2-region CGRA overlay.
    pub fn preset_edge_riscv(name: impl Into<String>) -> NodeSpec {
        NodeSpec::builder(name, NodeKind::EdgeRiscv)
            .cores(1)
            .speed_mhz(600.0)
            .mem_mb(512)
            .accelerator(AcceleratorSpec::new(2, 6.0, SimDuration::from_millis(2)))
            .points(OperatingPointSet::new(vec![
                OperatingPoint::new("nominal", 1.0, 1.5, 0.3),
                OperatingPoint::new("sleepy", 0.3, 0.5, 0.1),
            ]))
            .build()
    }

    /// Preset: multi-sensor smart gateway (fog hub, light local processing).
    pub fn preset_fog_gateway(name: impl Into<String>) -> NodeSpec {
        NodeSpec::builder(name, NodeKind::FogGateway)
            .cores(4)
            .speed_mhz(1_800.0)
            .mem_mb(8_192)
            .points(OperatingPointSet::single(15.0, 5.0))
            .build()
    }

    /// Preset: fog micro data center (hyper-converged servers).
    pub fn preset_fog_fmdc(name: impl Into<String>) -> NodeSpec {
        NodeSpec::builder(name, NodeKind::FogFmdc)
            .cores(32)
            .speed_mhz(2_600.0)
            .mem_mb(131_072)
            .points(OperatingPointSet::new(vec![
                OperatingPoint::new("nominal", 1.0, 350.0, 90.0),
                OperatingPoint::new("boost", 1.2, 480.0, 90.0),
            ]))
            .build()
    }

    /// Preset: cloud datacenter server.
    pub fn preset_cloud_server(name: impl Into<String>) -> NodeSpec {
        NodeSpec::builder(name, NodeKind::CloudServer)
            .cores(128)
            .speed_mhz(3_000.0)
            .mem_mb(1_048_576)
            .points(OperatingPointSet::single(900.0, 250.0))
            .build()
    }

    /// Node name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Hardware family.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Continuum layer (derived from the kind).
    pub fn layer(&self) -> Layer {
        self.kind.layer()
    }

    /// Number of cores.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Nominal per-core speed in MHz (megacycles per second).
    pub fn speed_mhz(&self) -> f64 {
        self.speed_mhz
    }

    /// Installed memory in MiB.
    pub fn mem_mb(&self) -> u64 {
        self.mem_mb
    }

    /// Attached accelerator fabric, if any.
    pub fn accelerator(&self) -> Option<&AcceleratorSpec> {
        self.accelerator.as_ref()
    }

    /// DVFS operating points.
    pub fn points(&self) -> &OperatingPointSet {
        &self.points
    }

    /// Aggregate nominal compute capacity in megacycles per second.
    pub fn capacity_mcps(&self) -> f64 {
        self.cores as f64 * self.speed_mhz
    }
}

/// Builder for [`NodeSpec`] (C-BUILDER).
#[derive(Debug)]
pub struct NodeSpecBuilder {
    name: String,
    kind: NodeKind,
    cores: u32,
    speed_mhz: f64,
    mem_mb: u64,
    accelerator: Option<AcceleratorSpec>,
    points: Option<OperatingPointSet>,
}

impl NodeSpecBuilder {
    /// Sets the core count.
    pub fn cores(mut self, cores: u32) -> Self {
        self.cores = cores;
        self
    }

    /// Sets the nominal per-core speed in MHz.
    pub fn speed_mhz(mut self, mhz: f64) -> Self {
        self.speed_mhz = mhz;
        self
    }

    /// Sets the installed memory in MiB.
    pub fn mem_mb(mut self, mb: u64) -> Self {
        self.mem_mb = mb;
        self
    }

    /// Attaches an accelerator fabric.
    pub fn accelerator(mut self, accel: AcceleratorSpec) -> Self {
        self.accelerator = Some(accel);
        self
    }

    /// Sets the operating-point set (defaults to a single 5 W / 1 W point).
    pub fn points(mut self, points: OperatingPointSet) -> Self {
        self.points = Some(points);
        self
    }

    /// Finalizes the spec.
    ///
    /// # Panics
    ///
    /// Panics if cores is zero or speed is not positive.
    pub fn build(self) -> NodeSpec {
        assert!(self.cores > 0, "a node needs at least one core");
        assert!(self.speed_mhz > 0.0, "speed must be positive");
        NodeSpec {
            name: self.name,
            kind: self.kind,
            cores: self.cores,
            speed_mhz: self.speed_mhz,
            mem_mb: self.mem_mb,
            accelerator: self.accelerator,
            points: self.points.unwrap_or_else(|| OperatingPointSet::single(5.0, 1.0)),
        }
    }
}

/// How a task ended up executing on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Plain software execution on a core.
    Software,
    /// Accelerated execution on a region already holding the right config.
    AcceleratedHot,
    /// Accelerated execution after a partial reconfiguration.
    AcceleratedReconfigured,
}

/// A task currently executing on a node.
#[derive(Debug, Clone)]
pub struct RunningTask {
    /// The executing task.
    pub task: TaskInstance,
    /// When service started (after any reconfiguration delay).
    pub started: SimTime,
    /// Remaining work in megacycles as of `progress_at`.
    pub remaining_mc: f64,
    /// Instant at which `remaining_mc` was last recomputed.
    pub progress_at: SimTime,
    /// Current service speed in megacycles per microsecond.
    pub speed_mc_per_us: f64,
    /// Epoch counter used to invalidate stale finish events.
    pub epoch: u64,
    /// Accelerator region in use, if accelerated.
    pub region: Option<u32>,
    /// How the task is executing.
    pub mode: ExecutionMode,
}

impl RunningTask {
    /// Work still left at `now`, in megacycles.
    pub fn remaining_mc_at(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(self.progress_at).as_micros() as f64;
        (self.remaining_mc - elapsed * self.speed_mc_per_us).max(0.0)
    }
}

/// Mutable simulation state of one node.
///
/// The [`SimCore`](crate::engine::SimCore) drives this state; it is public
/// so orchestration policies can inspect utilization, queue depth and
/// energy when making decisions.
#[derive(Debug, Clone)]
pub struct NodeState {
    id: NodeId,
    spec: NodeSpec,
    up: bool,
    point_idx: usize,
    running: Vec<RunningTask>,
    queue: std::collections::VecDeque<TaskInstance>,
    mem_used_mb: u64,
    regions: Vec<Option<u32>>,
    meter: EnergyMeter,
    epoch_counter: u64,
    completed: u64,
    reconfigurations: u64,
}

impl NodeState {
    /// Creates the runtime state for a node.
    pub fn new(id: NodeId, spec: NodeSpec) -> Self {
        let meter = EnergyMeter::new(spec.cores(), spec.points().point(0));
        let regions =
            spec.accelerator().map(|a| vec![None; a.regions() as usize]).unwrap_or_default();
        NodeState {
            id,
            spec,
            up: true,
            point_idx: 0,
            running: Vec::new(),
            queue: std::collections::VecDeque::new(),
            mem_used_mb: 0,
            regions,
            meter,
            epoch_counter: 0,
            completed: 0,
            reconfigurations: 0,
        }
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The immutable spec.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// Whether the node is up (powered and reachable).
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Index of the active operating point.
    pub fn point_idx(&self) -> usize {
        self.point_idx
    }

    /// The active operating point.
    pub fn point(&self) -> &OperatingPoint {
        self.spec.points().point(self.point_idx)
    }

    /// Tasks currently in service.
    pub fn running(&self) -> &[RunningTask] {
        &self.running
    }

    /// Tasks waiting for a core.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Tasks waiting for a core, in FIFO order (inspection — migration
    /// policies pick victims from here).
    pub fn queued(&self) -> impl Iterator<Item = &TaskInstance> {
        self.queue.iter()
    }

    /// Busy cores / total cores, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.running.len() as f64 / self.spec.cores() as f64
    }

    /// Memory currently reserved by running + queued tasks, in MiB.
    pub fn mem_used_mb(&self) -> u64 {
        self.mem_used_mb
    }

    /// Free memory in MiB.
    pub fn mem_free_mb(&self) -> u64 {
        self.spec.mem_mb().saturating_sub(self.mem_used_mb)
    }

    /// Total energy consumed so far (advanced lazily; call
    /// [`NodeState::refresh_energy`] for an up-to-date figure).
    pub fn energy_j(&self) -> f64 {
        self.meter.joules()
    }

    /// Charges the energy meter up to `now`.
    pub fn refresh_energy(&mut self, now: SimTime) {
        self.meter.advance(now);
    }

    /// Energy consumed up to `now`, read without charging the meter.
    pub(crate) fn energy_j_at(&self, now: SimTime) -> f64 {
        self.meter.joules_at(now)
    }

    /// Number of completed tasks.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Number of accelerator partial reconfigurations performed.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// Current bitstream/config loaded in each accelerator region.
    pub fn regions(&self) -> &[Option<u32>] {
        &self.regions
    }

    /// Effective per-core speed (megacycles per microsecond) at the current
    /// operating point.
    pub fn core_speed_mc_per_us(&self) -> f64 {
        self.effective_speed_mc_per_us()
    }

    /// Estimated waiting time before a newly queued software task would
    /// start, assuming FIFO service (used by placement heuristics).
    pub fn estimated_backlog(&self, now: SimTime) -> SimDuration {
        let speed = self.effective_speed_mc_per_us();
        if speed <= 0.0 {
            return SimDuration::ZERO;
        }
        let mut pending_mc: f64 = self.queue.iter().map(|t| t.work_mc).sum();
        for r in &self.running {
            pending_mc += r.remaining_mc_at(now);
        }
        SimDuration::from_micros_f64(pending_mc / (speed * self.spec.cores() as f64))
    }

    fn effective_speed_mc_per_us(&self) -> f64 {
        // speed_mhz is megacycles per second; divide by 1e6 for per-us.
        self.spec.speed_mhz() * self.point().freq_scale() / 1e6
    }

    /// Predicted pure service time of `work_mc` megacycles of software
    /// execution at the current point (ignoring queueing).
    pub fn service_time(&self, work_mc: f64) -> SimDuration {
        SimDuration::from_micros_f64(work_mc / self.effective_speed_mc_per_us())
    }

    pub(crate) fn set_up(&mut self, now: SimTime, up: bool) -> Vec<TaskInstance> {
        self.meter.advance(now);
        self.up = up;
        if !up {
            // Node crash: drop running + queued tasks and report them so the
            // driver can observe the failures.
            let mut lost: Vec<TaskInstance> = self.running.drain(..).map(|r| r.task).collect();
            lost.extend(self.queue.drain(..));
            self.mem_used_mb = 0;
            for r in &mut self.regions {
                *r = None;
            }
            self.meter.set_busy_cores(now, 0);
            lost
        } else {
            Vec::new()
        }
    }

    pub(crate) fn switch_point(
        &mut self,
        now: SimTime,
        idx: usize,
    ) -> Vec<(TaskId, u64, SimDuration)> {
        assert!(idx < self.spec.points().len(), "operating point out of range");
        if idx == self.point_idx {
            return Vec::new();
        }
        // Recompute remaining work of running tasks at the old speed, then
        // re-time their completion at the new speed.
        let mut rescheduled = Vec::new();
        let old_speed = self.effective_speed_mc_per_us();
        self.meter.set_point(now, self.spec.points().point(idx));
        self.point_idx = idx;
        let new_sw_speed = self.effective_speed_mc_per_us();
        for r in &mut self.running {
            r.remaining_mc = r.remaining_mc_at(now);
            r.progress_at = now;
            // The accelerator fabric is tied to the same clock domain as
            // the cores, so both software and accelerated tasks rescale
            // with the frequency ratio.
            r.speed_mc_per_us *= new_sw_speed / old_speed;
            self.epoch_counter += 1;
            r.epoch = self.epoch_counter;
            let eta = SimDuration::from_micros_f64(r.remaining_mc / r.speed_mc_per_us);
            rescheduled.push((r.task.id, r.epoch, eta));
        }
        rescheduled
    }

    /// Admits a task: starts it if a core is free, otherwise queues it.
    /// Returns `Some((epoch, service, mode))` when started immediately.
    pub(crate) fn admit(
        &mut self,
        now: SimTime,
        task: TaskInstance,
    ) -> Option<(u64, SimDuration, ExecutionMode)> {
        self.mem_used_mb += task.mem_mb;
        if (self.running.len() as u32) < self.spec.cores() {
            Some(self.start(now, task))
        } else {
            self.queue.push_back(task);
            None
        }
    }

    fn start(&mut self, now: SimTime, task: TaskInstance) -> (u64, SimDuration, ExecutionMode) {
        let sw_speed = self.effective_speed_mc_per_us();
        let mut mode = ExecutionMode::Software;
        let mut region = None;
        let mut speed = sw_speed;
        let mut extra = SimDuration::ZERO;
        // Only the two Copy scalars are needed below, so the spec borrow
        // can end here (no per-start `AcceleratorSpec` clone).
        let accel = self.spec.accelerator().map(|a| (a.speedup(), a.reconfig()));
        if let (Some(cfg), Some((accel_speedup, accel_reconfig))) = (task.accel_cfg, accel) {
            // Occupancy bitmask over regions (no per-start Vec); fabrics
            // wider than 128 regions fall back to scanning the run set.
            let mut in_use_mask: u128 = 0;
            for r in &self.running {
                if let Some(g) = r.region {
                    if g < 128 {
                        in_use_mask |= 1 << g;
                    }
                }
            }
            let running = &self.running;
            let is_free = |i: usize| {
                if i < 128 {
                    in_use_mask & (1 << i) == 0
                } else {
                    !running.iter().any(|r| r.region == Some(i as u32))
                }
            };
            // Prefer a free region already holding this configuration.
            let hot =
                self.regions.iter().enumerate().find(|(i, c)| **c == Some(cfg) && is_free(*i));
            let slot = hot.map(|(i, _)| (i, true)).or_else(|| {
                self.regions.iter().enumerate().find(|(i, _)| is_free(*i)).map(|(i, _)| (i, false))
            });
            if let Some((idx, was_hot)) = slot {
                region = Some(idx as u32);
                speed = sw_speed * task.accel_speedup.unwrap_or(accel_speedup);
                if was_hot {
                    mode = ExecutionMode::AcceleratedHot;
                } else {
                    mode = ExecutionMode::AcceleratedReconfigured;
                    extra = accel_reconfig;
                    self.regions[idx] = Some(cfg);
                    self.reconfigurations += 1;
                }
            }
        }
        self.epoch_counter += 1;
        let epoch = self.epoch_counter;
        let service = SimDuration::from_micros_f64(task.work_mc / speed) + extra;
        self.running.push(RunningTask {
            task,
            started: now,
            remaining_mc: 0.0, // filled below for clarity
            progress_at: now + extra,
            speed_mc_per_us: speed,
            epoch,
            region,
            mode,
        });
        let r = self.running.last_mut().expect("just pushed");
        r.remaining_mc = r.task.work_mc;
        self.meter.set_busy_cores(now, self.running.len() as u32);
        (epoch, service, mode)
    }

    /// Completes the task identified by `(id, epoch)`. Returns the finished
    /// task and, if the queue was non-empty, the next task start
    /// `(epoch, service, mode)` for the engine to schedule.
    ///
    /// Returns `None` when the epoch is stale (the task was rescheduled or
    /// the node restarted), in which case the event must be ignored.
    #[allow(clippy::type_complexity)]
    pub(crate) fn finish(
        &mut self,
        now: SimTime,
        id: TaskId,
        epoch: u64,
    ) -> Option<(TaskInstance, Option<(TaskId, u64, SimDuration, ExecutionMode)>)> {
        let pos = self.running.iter().position(|r| r.task.id == id && r.epoch == epoch)?;
        let done = self.running.swap_remove(pos);
        self.mem_used_mb = self.mem_used_mb.saturating_sub(done.task.mem_mb);
        self.completed += 1;
        self.meter.set_busy_cores(now, self.running.len() as u32);
        let next = self.queue.pop_front().map(|t| {
            let tid = t.id;
            let (ep, service, mode) = self.start(now, t);
            (tid, ep, service, mode)
        });
        Some((done.task, next))
    }

    /// Cancels a task wherever it sits: removes it from the run set
    /// (freeing its core — any pending finish event goes stale because
    /// the running entry is gone) or from the wait queue. Returns the
    /// cancelled task and, when a core was freed and the queue was
    /// non-empty, the next task start for the engine to schedule.
    #[allow(clippy::type_complexity)]
    pub(crate) fn cancel(
        &mut self,
        now: SimTime,
        id: TaskId,
    ) -> Option<(TaskInstance, Option<(TaskId, u64, SimDuration, ExecutionMode)>)> {
        if let Some(pos) = self.running.iter().position(|r| r.task.id == id) {
            let dropped = self.running.swap_remove(pos);
            self.mem_used_mb = self.mem_used_mb.saturating_sub(dropped.task.mem_mb);
            self.meter.set_busy_cores(now, self.running.len() as u32);
            let next = self.queue.pop_front().map(|t| {
                let tid = t.id;
                let (ep, service, mode) = self.start(now, t);
                (tid, ep, service, mode)
            });
            return Some((dropped.task, next));
        }
        if let Some(pos) = self.queue.iter().position(|t| t.id == id) {
            let dropped = self.queue.remove(pos).expect("position is in range");
            self.mem_used_mb = self.mem_used_mb.saturating_sub(dropped.mem_mb);
            return Some((dropped, None));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskInstance;

    fn task(id: u64, work_mc: f64) -> TaskInstance {
        TaskInstance::new(TaskId::from_raw(id), work_mc)
    }

    fn hmpsoc_state() -> NodeState {
        NodeState::new(NodeId::from_raw(0), NodeSpec::preset_edge_hmpsoc("n"))
    }

    #[test]
    fn presets_have_expected_layers() {
        assert_eq!(NodeSpec::preset_edge_multicore("a").layer(), Layer::Edge);
        assert_eq!(NodeSpec::preset_fog_fmdc("b").layer(), Layer::Fog);
        assert_eq!(NodeSpec::preset_cloud_server("c").layer(), Layer::Cloud);
    }

    #[test]
    fn software_service_time_matches_formula() {
        let n = NodeState::new(NodeId::from_raw(0), NodeSpec::preset_edge_multicore("n"));
        // 1500 MHz ⇒ 1.5e-3 megacycles per µs ⇒ 1.5 mc takes 1000 µs.
        let d = n.service_time(1.5);
        assert_eq!(d.as_micros(), 1_000);
    }

    #[test]
    fn admit_starts_up_to_core_count_then_queues() {
        let mut n = hmpsoc_state(); // 2 cores
        assert!(n.admit(SimTime::ZERO, task(1, 100.0)).is_some());
        assert!(n.admit(SimTime::ZERO, task(2, 100.0)).is_some());
        assert!(n.admit(SimTime::ZERO, task(3, 100.0)).is_none());
        assert_eq!(n.queue_len(), 1);
        assert_eq!(n.running().len(), 2);
    }

    #[test]
    fn finish_dequeues_next_task() {
        let mut n = hmpsoc_state();
        let (e1, _, _) = n.admit(SimTime::ZERO, task(1, 100.0)).expect("starts");
        n.admit(SimTime::ZERO, task(2, 100.0));
        n.admit(SimTime::ZERO, task(3, 100.0));
        let (done, next) =
            n.finish(SimTime::from_millis(1), TaskId::from_raw(1), e1).expect("valid epoch");
        assert_eq!(done.id, TaskId::from_raw(1));
        let (next_id, ..) = next.expect("queued task starts");
        assert_eq!(next_id, TaskId::from_raw(3));
        assert_eq!(n.running().len(), 2);
        assert_eq!(n.queue_len(), 0);
    }

    #[test]
    fn stale_epoch_is_ignored() {
        let mut n = hmpsoc_state();
        let (e1, _, _) = n.admit(SimTime::ZERO, task(1, 100.0)).expect("starts");
        assert!(n.finish(SimTime::ZERO, TaskId::from_raw(1), e1 + 99).is_none());
    }

    #[test]
    fn accelerated_task_uses_region_and_reconfigures_once() {
        let mut n = hmpsoc_state();
        let mut t = task(1, 12.0);
        t.accel_cfg = Some(7);
        let (_, service, mode) = n.admit(SimTime::ZERO, t).expect("starts");
        assert_eq!(mode, ExecutionMode::AcceleratedReconfigured);
        // 1200 MHz × 12x = 14.4e-3 mc/µs ⇒ 12 mc ≈ 833 µs + 8 ms reconfig.
        assert!(service.as_micros() > 8_000);
        assert_eq!(n.reconfigurations(), 1);

        // Second task with the same config hits a hot region.
        let (done, _) =
            n.finish(SimTime::from_millis(10), TaskId::from_raw(1), 1).expect("finishes");
        assert_eq!(done.id, TaskId::from_raw(1));
        let mut t2 = task(2, 12.0);
        t2.accel_cfg = Some(7);
        let (_, service2, mode2) = n.admit(SimTime::from_millis(10), t2).expect("starts");
        assert_eq!(mode2, ExecutionMode::AcceleratedHot);
        assert!(service2.as_micros() < 1_000);
        assert_eq!(n.reconfigurations(), 1);
    }

    #[test]
    fn node_down_drops_all_work() {
        let mut n = hmpsoc_state();
        n.admit(SimTime::ZERO, task(1, 100.0));
        n.admit(SimTime::ZERO, task(2, 100.0));
        n.admit(SimTime::ZERO, task(3, 100.0));
        let lost = n.set_up(SimTime::from_millis(1), false);
        assert_eq!(lost.len(), 3);
        assert!(!n.is_up());
        assert_eq!(n.running().len(), 0);
        assert_eq!(n.queue_len(), 0);
        assert_eq!(n.mem_used_mb(), 0);
    }

    #[test]
    fn cancel_frees_resources_and_promotes_queued_work() {
        let mut n = hmpsoc_state(); // 2 cores
        n.admit(SimTime::ZERO, task(1, 100.0));
        n.admit(SimTime::ZERO, task(2, 100.0));
        n.admit(SimTime::ZERO, task(3, 100.0));
        let mem_before = n.mem_used_mb();
        // Cancelling a running task frees its core and starts the queued one.
        let (dropped, next) = n.cancel(SimTime::ZERO, TaskId::from_raw(1)).expect("running");
        assert_eq!(dropped.id, TaskId::from_raw(1));
        let (next_id, ..) = next.expect("queued task starts");
        assert_eq!(next_id, TaskId::from_raw(3));
        assert_eq!(n.running().len(), 2);
        assert_eq!(n.queue_len(), 0);
        assert!(n.mem_used_mb() <= mem_before);
        // Cancelling a queued task removes it without starting anything.
        n.admit(SimTime::ZERO, task(4, 100.0));
        let (dropped, next) = n.cancel(SimTime::ZERO, TaskId::from_raw(4)).expect("queued");
        assert_eq!(dropped.id, TaskId::from_raw(4));
        assert!(next.is_none());
        // Unknown tasks are a no-op.
        assert!(n.cancel(SimTime::ZERO, TaskId::from_raw(99)).is_none());
        // The cancelled running task's finish event is now stale.
        assert!(n.finish(SimTime::from_millis(1), TaskId::from_raw(1), 1).is_none());
    }

    #[test]
    fn switch_point_rescales_running_tasks() {
        let mut n = NodeState::new(NodeId::from_raw(0), NodeSpec::preset_edge_multicore("n"));
        // eco point index 1 slows the clock to 0.6x.
        let (_, service, _) = n.admit(SimTime::ZERO, task(1, 1.5)).expect("starts");
        assert_eq!(service.as_micros(), 1_000);
        let res = n.switch_point(SimTime::from_micros(500), 1);
        assert_eq!(res.len(), 1);
        let (_, _, eta) = res[0];
        // Half the work remains (0.75 mc) at 0.9e-3 mc/µs ⇒ ~833 µs.
        assert!((eta.as_micros() as i64 - 833).abs() <= 1);
    }

    #[test]
    fn utilization_and_backlog_reflect_load() {
        let mut n = hmpsoc_state();
        assert_eq!(n.utilization(), 0.0);
        n.admit(SimTime::ZERO, task(1, 1_200.0));
        assert_eq!(n.utilization(), 0.5);
        n.admit(SimTime::ZERO, task(2, 1_200.0));
        n.admit(SimTime::ZERO, task(3, 1_200.0));
        assert!(n.estimated_backlog(SimTime::ZERO).as_micros() > 0);
    }
}
