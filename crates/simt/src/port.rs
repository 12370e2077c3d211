//! The [`ClusterPort`] trait: services the cluster provides to its cores.

use virgo_isa::{DeviceId, MmioCommand, WgmmaOp};
use virgo_sim::Cycle;

/// Services a SIMT core obtains from the cluster it lives in.
///
/// The cluster model (in the `virgo` crate) implements this trait, routing
/// the calls to the shared memory, the global memory hierarchy, the
/// per-core tensor units, the disaggregated matrix unit, the DMA engine, the
/// asynchronous-operation tracker behind `virgo_fence`, and the cluster
/// synchronizer.
///
/// Every method takes the current cycle so the callee can model occupancy.
/// Commands and accesses arrive with their addresses already resolved by
/// the issuing warp's program cursor (latched at issue).
pub trait ClusterPort {
    /// Serves one warp shared-memory access (4 bytes per lane); returns the
    /// completion cycle.
    fn shared_access(&mut self, now: Cycle, core: u32, lane_addrs: &[u64], write: bool) -> Cycle;

    /// Serves one warp global-memory access; returns the completion cycle.
    fn global_access(
        &mut self,
        now: Cycle,
        core: u32,
        lane_addrs: &[u64],
        bytes_per_lane: u32,
        write: bool,
    ) -> Cycle;

    /// Attempts to start one Volta-style HMMA step of `macs`
    /// multiply-accumulates on `core`'s tightly-coupled tensor unit.
    /// Returns `false` when the unit is still busy (structural hazard — the
    /// warp retries next cycle).
    fn try_hmma(&mut self, now: Cycle, core: u32, macs: u32) -> bool;

    /// The cycle at which `core`'s tightly-coupled tensor unit finishes its
    /// current step and can accept the next one, or `None` when the unit is
    /// already free. A design with no such unit also returns `None`: its
    /// `try_hmma` fails every cycle, so a stray `HmmaStep` keeps the core
    /// conservatively pinned to `now` (and eventually surfaces as an
    /// issue-stall in the timeout diagnosis).
    ///
    /// This powers the fast-forward engine's structural-hazard refinement:
    /// when every runnable warp of a core is retrying an HMMA step against a
    /// busy unit, the core's event horizon can jump to this cycle instead of
    /// pinning to `now`.
    fn hmma_busy_until(&self, now: Cycle, core: u32) -> Option<Cycle>;

    /// Attempts to enqueue a Hopper-style asynchronous `wgmma` operation on
    /// `core`'s operand-decoupled tensor unit. Returns `false` when the
    /// unit's queue is full.
    fn try_wgmma(&mut self, now: Cycle, core: u32, op: &WgmmaOp) -> bool;

    /// The first cycle at which `core`'s operand-decoupled tensor unit can
    /// accept a `wgmma` again, given that nothing else enqueues before
    /// then: `now` while its queue has space, otherwise the cycle after its
    /// active operation retires, when the unit's next tick dequeues. `None`
    /// when the core has no such unit (its `try_wgmma` fails every cycle).
    ///
    /// This is the `wgmma` counterpart of [`ClusterPort::hmma_busy_until`]:
    /// when every runnable warp of a core is retrying a `WgmmaInit` against
    /// a full queue (or an HMMA step against a busy unit), the core's event
    /// horizon can jump to this cycle instead of pinning to `now`. An
    /// answer earlier than the true acceptance cycle is sound (the warp
    /// retries and parks again); a later one is not.
    fn wgmma_accept_at(&self, now: Cycle, core: u32) -> Option<Cycle>;

    /// Number of `wgmma` operations still outstanding on `core`'s unit.
    fn wgmma_pending(&self, core: u32) -> u32;

    /// Writes an MMIO command to a cluster device (matrix unit or DMA).
    /// Returns `false` when the device cannot accept the command this cycle.
    fn mmio_write(&mut self, now: Cycle, core: u32, device: DeviceId, cmd: &MmioCommand) -> bool;

    /// Number of asynchronous cluster operations (DMA transfers and
    /// disaggregated matrix operations) issued by the thread block that have
    /// not yet completed. `virgo_fence(n)` blocks while this exceeds `n`.
    fn async_outstanding(&self) -> u32;

    /// Registers that a warp arrived at cluster barrier `id`; returns the
    /// barrier generation ("ticket") the warp waits on.
    fn barrier_arrive(&mut self, id: u8, warp_global_id: u32) -> u64;

    /// True once barrier `id` has released generation `ticket`.
    fn barrier_passed(&self, id: u8, ticket: u64) -> bool;
}
