//! Executable work items.
//!
//! A [`TaskInstance`] is the unit of execution the continuum schedules: a
//! quantity of work (megacycles), a memory reservation, optional input /
//! output data volumes (which travel over the [network](crate::net)), an
//! optional accelerator configuration request and an optional deadline.
//!
//! Higher-level application models (TOSCA topologies, dataflow graphs)
//! live in the `myrtus-workload` crate and compile down to these.

use crate::ids::TaskId;
use crate::time::SimTime;

/// One schedulable task instance.
///
/// Fields are public: a task is plain data exchanged between the workload
/// generator, orchestration policies and the simulator core.
///
/// # Examples
///
/// ```
/// use myrtus_continuum::ids::TaskId;
/// use myrtus_continuum::task::TaskInstance;
///
/// let t = TaskInstance::new(TaskId::from_raw(1), 2_500.0)
///     .with_mem_mb(64)
///     .with_io_bytes(4_096, 512);
/// assert_eq!(t.mem_mb, 64);
/// assert_eq!(t.input_bytes, 4_096);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaskInstance {
    /// Unique id of this instance.
    pub id: TaskId,
    /// Computational work in megacycles of software execution.
    pub work_mc: f64,
    /// Memory reserved while running or queued, in MiB.
    pub mem_mb: u64,
    /// Input payload that must reach the executing node, in bytes.
    pub input_bytes: u64,
    /// Result payload sent back to the requester, in bytes.
    pub output_bytes: u64,
    /// Accelerator configuration (bitstream id) this task can exploit.
    pub accel_cfg: Option<u32>,
    /// Task-specific speedup override when accelerated (else the fabric
    /// default applies).
    pub accel_speedup: Option<f64>,
    /// Absolute completion deadline, if the task is QoS-constrained.
    pub deadline: Option<SimTime>,
    /// When the task was released by its source.
    pub released: SimTime,
    /// Opaque correlation tag for the driver (e.g. application/component
    /// identity in the workload crate).
    pub tag: u64,
    /// QoS class for admission control: tasks at or above an
    /// [`crate::admission::AdmissionPolicy::protect_priority`] threshold
    /// bypass rate limiting and queue bounds. Higher is more important.
    pub priority: u8,
    /// Portable executable body, if the task carries one. `None` (the
    /// default) keeps the scalar-cost path byte-identical: the task is
    /// just `work_mc` megacycles. With a body and a VM runtime
    /// installed on the core ([`crate::engine::SimCore::set_vm`]), the
    /// engine re-prices `work_mc` from the program's per-opcode cost on
    /// each hosting node and can checkpoint/live-migrate the task.
    pub body: Option<TaskBody>,
}

/// Reference to a portable task body: a program in the installed
/// [`crate::engine::VmConfig`] library plus the seed of its
/// deterministic input stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskBody {
    /// Index into the installed program library.
    pub program: u32,
    /// Seed of the task's `Op::Input` stream.
    pub seed: u64,
}

impl TaskBody {
    /// Body executing library program `program` with input seed `seed`.
    pub fn new(program: u32, seed: u64) -> Self {
        TaskBody { program, seed }
    }
}

impl TaskInstance {
    /// Creates a software task with the given work and defaults elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `work_mc` is negative.
    pub fn new(id: TaskId, work_mc: f64) -> Self {
        assert!(work_mc >= 0.0, "work must be non-negative");
        TaskInstance {
            id,
            work_mc,
            mem_mb: 1,
            input_bytes: 0,
            output_bytes: 0,
            accel_cfg: None,
            accel_speedup: None,
            deadline: None,
            released: SimTime::ZERO,
            tag: 0,
            priority: 0,
            body: None,
        }
    }

    /// Sets the memory reservation.
    pub fn with_mem_mb(mut self, mb: u64) -> Self {
        self.mem_mb = mb;
        self
    }

    /// Sets the input / output payload sizes.
    pub fn with_io_bytes(mut self, input: u64, output: u64) -> Self {
        self.input_bytes = input;
        self.output_bytes = output;
        self
    }

    /// Requests acceleration with the given configuration id.
    pub fn with_accel(mut self, cfg: u32) -> Self {
        self.accel_cfg = Some(cfg);
        self
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the release instant.
    pub fn with_released(mut self, at: SimTime) -> Self {
        self.released = at;
        self
    }

    /// Sets the opaque correlation tag.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Sets the QoS priority class (higher is more important).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Attaches a portable executable body.
    pub fn with_body(mut self, body: TaskBody) -> Self {
        self.body = Some(body);
        self
    }

    /// Whether the task missed its deadline if it completes at `finish`.
    pub fn misses_deadline(&self, finish: SimTime) -> bool {
        self.deadline.is_some_and(|d| finish > d)
    }
}

/// Outcome record of one completed (or failed) task, produced by the
/// simulation core for the driver's bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskOutcome {
    /// The task.
    pub task: TaskInstance,
    /// Node that executed (or lost) the task.
    pub node: crate::ids::NodeId,
    /// When the task finished, or when it was lost.
    pub at: SimTime,
    /// Whether the task completed successfully.
    pub completed: bool,
    /// End-to-end latency from release to completion.
    pub latency: crate::time::SimDuration,
    /// Whether the deadline (if any) was met.
    pub deadline_met: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn builder_chain_sets_fields() {
        let t = TaskInstance::new(TaskId::from_raw(9), 10.0)
            .with_mem_mb(32)
            .with_io_bytes(1, 2)
            .with_accel(3)
            .with_deadline(SimTime::from_millis(5))
            .with_released(SimTime::from_millis(1))
            .with_tag(42);
        assert_eq!(t.accel_cfg, Some(3));
        assert_eq!(t.tag, 42);
        assert_eq!(t.released, SimTime::from_millis(1));
    }

    #[test]
    fn deadline_check() {
        let t = TaskInstance::new(TaskId::from_raw(1), 1.0).with_deadline(SimTime::from_millis(10));
        assert!(!t.misses_deadline(SimTime::from_millis(10)));
        assert!(t.misses_deadline(SimTime::from_millis(10) + SimDuration::from_micros(1)));
        let free = TaskInstance::new(TaskId::from_raw(2), 1.0);
        assert!(!free.misses_deadline(SimTime::MAX));
    }
}
