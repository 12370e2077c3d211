//! Address expressions and per-lane access patterns.
//!
//! Kernels are loop structured, so a single static instruction executes many
//! times with different addresses (streaming over the K dimension, alternating
//! double buffers, ...). [`AddrExpr`] captures the address as a function of
//! the instruction's *execution index*, which the program cursor evaluates
//! when it yields the op.

use virgo_sim::{StableHash, StableHasher};

/// Memory regions addressable by kernels and DMA commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemRegion {
    /// Off-chip global memory, reached through the L1/L2 cache hierarchy.
    Global,
    /// The cluster-local software-managed shared memory (scratchpad).
    Shared,
    /// The private accumulator SRAM inside the disaggregated matrix unit.
    Accumulator,
}

impl MemRegion {
    /// Returns a short lower-case name, used in traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            MemRegion::Global => "global",
            MemRegion::Shared => "shared",
            MemRegion::Accumulator => "accumulator",
        }
    }
}

// ---------------------------------------------------------------------------
// The remote shared-memory address window.
//
// Hopper-style distributed shared memory exposes a peer cluster's scratchpad
// through a dedicated address window: the high window bit marks the access as
// remote, a cluster-id field selects the peer, and the low bits are the byte
// offset inside that peer's shared memory. Accesses that decode to this
// window are routed over the inter-cluster DSM fabric instead of the local
// scratchpad banks.
// ---------------------------------------------------------------------------

/// The bit marking a [`MemRegion::Shared`] address as targeting a *peer*
/// cluster's scratchpad through the DSM window.
pub const REMOTE_SMEM_WINDOW: u64 = 1 << 62;

/// Bit position of the cluster-id field inside a remote window address.
const REMOTE_CLUSTER_SHIFT: u32 = 40;

/// Width mask of the cluster-id field (16 bits — far beyond any machine the
/// model instantiates).
const REMOTE_CLUSTER_MASK: u64 = 0xFFFF;

/// Mask of the byte-offset field inside a remote window address.
const REMOTE_OFFSET_MASK: u64 = (1 << REMOTE_CLUSTER_SHIFT) - 1;

/// Encodes a shared-memory byte offset inside `cluster`'s scratchpad as a
/// remote-window address.
///
/// # Panics
///
/// Panics if the cluster id or offset overflow their window fields.
///
/// # Example
///
/// ```
/// use virgo_isa::{decode_remote_smem, remote_smem_addr};
///
/// let addr = remote_smem_addr(3, 0x4000);
/// assert_eq!(decode_remote_smem(addr), Some((3, 0x4000)));
/// assert_eq!(decode_remote_smem(0x4000), None, "local addresses stay local");
/// ```
pub fn remote_smem_addr(cluster: u32, offset: u64) -> u64 {
    assert!(
        u64::from(cluster) <= REMOTE_CLUSTER_MASK,
        "cluster id {cluster} overflows the remote window's cluster field"
    );
    assert!(
        offset <= REMOTE_OFFSET_MASK,
        "offset {offset:#x} overflows the remote window's offset field"
    );
    REMOTE_SMEM_WINDOW | (u64::from(cluster) << REMOTE_CLUSTER_SHIFT) | offset
}

/// Decodes a remote-window address into `(cluster, offset)`, or `None` for a
/// plain local address.
pub fn decode_remote_smem(addr: u64) -> Option<(u32, u64)> {
    if addr & REMOTE_SMEM_WINDOW == 0 {
        return None;
    }
    let cluster = ((addr >> REMOTE_CLUSTER_SHIFT) & REMOTE_CLUSTER_MASK) as u32;
    Some((cluster, addr & REMOTE_OFFSET_MASK))
}

/// A byte address as a function of the owning static instruction's
/// execution index.
///
/// The effective address for the `e`-th execution (`e` starting at 0) is:
///
/// ```text
/// base + (e % modulo) * stride        (modulo > 0)
/// base +  e           * stride        (modulo == 0)
/// ```
///
/// `modulo == 2` models double buffering in shared memory; `modulo == 0`
/// models streaming over fresh global-memory tiles.
///
/// An op's `e`-th execution is its position in its enclosing loops: with
/// trip counts `c1, c2, …` (outermost first) and iteration indices
/// `i1, i2, …`, `e = (i1·c2 + i2)·c3 + …`, and an op outside every loop
/// has `e = 0`. Unrolled copies are separate ops, and each starts at 0, so
/// two ops built from the same expression both start at `base`.
/// [`ProgramCursor::next_op`](crate::ProgramCursor::next_op) applies the
/// rule: every op it yields carries [`AddrExpr::fixed`] addresses, which
/// devices read with [`AddrExpr::resolved`].
///
/// # Example
///
/// ```
/// use virgo_isa::AddrExpr;
///
/// let stream = AddrExpr::streaming(0x1000, 256);
/// assert_eq!(stream.eval(0), 0x1000);
/// assert_eq!(stream.eval(3), 0x1000 + 3 * 256);
///
/// let pingpong = AddrExpr::double_buffered(0x0, 0x800);
/// assert_eq!(pingpong.eval(0), 0x0);
/// assert_eq!(pingpong.eval(1), 0x800);
/// assert_eq!(pingpong.eval(2), 0x0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrExpr {
    /// Base byte address for the first execution.
    pub base: u64,
    /// Byte stride applied per execution index.
    pub stride: u64,
    /// Modulo applied to the execution index; zero disables the modulo.
    pub modulo: u32,
}

impl AddrExpr {
    /// An address that is the same on every execution.
    pub const fn fixed(base: u64) -> Self {
        AddrExpr {
            base,
            stride: 0,
            modulo: 0,
        }
    }

    /// An address that advances by `stride` bytes on every execution of the
    /// static op that holds it.
    pub const fn streaming(base: u64, stride: u64) -> Self {
        AddrExpr {
            base,
            stride,
            modulo: 0,
        }
    }

    /// An address that alternates between two buffers (`base`, `base +
    /// offset`) on successive executions — the classic double-buffering
    /// pattern of software-pipelined GEMM kernels. The buffer alternates
    /// per execution of the static op that holds it, so two ops built from
    /// one expression pick the same buffer only while their execution
    /// indices have the same parity.
    pub const fn double_buffered(base: u64, offset: u64) -> Self {
        AddrExpr {
            base,
            stride: offset,
            modulo: 2,
        }
    }

    /// An address cycling through `count` buffers spaced `stride` bytes apart.
    pub const fn rotating(base: u64, stride: u64, count: u32) -> Self {
        AddrExpr {
            base,
            stride,
            modulo: count,
        }
    }

    /// Evaluates the address for the `n`-th execution of the static
    /// instruction that holds it (starting at zero).
    pub fn eval(&self, n: u64) -> u64 {
        let modulo = u64::from(self.modulo);
        let idx = if modulo == 0 {
            n
        } else if modulo.is_power_of_two() {
            // Double buffering (`modulo == 2`) is the common case.
            n & (modulo - 1)
        } else {
            n % modulo
        };
        self.base + idx * self.stride
    }

    /// The address of an expression already resolved to
    /// [`AddrExpr::fixed`] form, as latched when its op issued.
    ///
    /// Debug builds assert the form, so a hand-built command that bypassed
    /// the program cursor fails loudly.
    pub fn resolved(&self) -> u64 {
        debug_assert!(
            self.stride == 0 && self.modulo == 0,
            "address {self:?} was not resolved by the program cursor"
        );
        self.base
    }
}

impl From<u64> for AddrExpr {
    fn from(base: u64) -> Self {
        AddrExpr::fixed(base)
    }
}

impl StableHash for MemRegion {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(match self {
            MemRegion::Global => 0,
            MemRegion::Shared => 1,
            MemRegion::Accumulator => 2,
        });
    }
}

impl StableHash for AddrExpr {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.base);
        h.write_u64(self.stride);
        h.write_u64(u64::from(self.modulo));
    }
}

impl StableHash for LaneAccess {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.addr.stable_hash(h);
        h.write_u64(u64::from(self.lane_stride));
        h.write_u64(u64::from(self.bytes_per_lane));
        h.write_u64(u64::from(self.active_lanes));
    }
}

/// A per-lane SIMT memory access pattern.
///
/// Each active lane `i` of the warp accesses `a + i * lane_stride` for
/// `bytes_per_lane` bytes, where `a` is `addr.eval(e)` and `e` the op's
/// execution index: its position in its enclosing loops (unrolled copies
/// are separate ops, and each starts at 0). The program cursor resolves
/// `addr` before the op issues, so the lane methods read it fixed.
///
/// # Example
///
/// ```
/// use virgo_isa::{AddrExpr, LaneAccess};
///
/// // 8 lanes each loading a consecutive 4-byte word: a fully coalescable
/// // 32-byte access.
/// let a = LaneAccess::contiguous_words(AddrExpr::fixed(0x100), 8);
/// assert_eq!(a.lane_addr(0), 0x100);
/// assert_eq!(a.lane_addr(7), 0x100 + 28);
/// assert_eq!(a.total_bytes(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneAccess {
    /// Address of lane 0 as a function of the execution index.
    pub addr: AddrExpr,
    /// Byte distance between consecutive lanes.
    pub lane_stride: u32,
    /// Bytes accessed by each lane.
    pub bytes_per_lane: u32,
    /// Number of active lanes participating in the access.
    pub active_lanes: u32,
}

impl LaneAccess {
    /// A fully-coalescable access: `lanes` lanes each touching a consecutive
    /// 4-byte word.
    pub fn contiguous_words(addr: AddrExpr, lanes: u32) -> Self {
        LaneAccess {
            addr,
            lane_stride: 4,
            bytes_per_lane: 4,
            active_lanes: lanes,
        }
    }

    /// A strided access where consecutive lanes are `lane_stride` bytes apart.
    pub fn strided(addr: AddrExpr, lane_stride: u32, bytes_per_lane: u32, lanes: u32) -> Self {
        LaneAccess {
            addr,
            lane_stride,
            bytes_per_lane,
            active_lanes: lanes,
        }
    }

    /// Byte address accessed by `lane` of a resolved access.
    pub fn lane_addr(&self, lane: u32) -> u64 {
        self.addr.resolved() + u64::from(lane) * u64::from(self.lane_stride)
    }

    /// Byte addresses of every active lane of a resolved access, in lane
    /// order: [`LaneAccess::lane_addr`] for each lane.
    pub fn lane_addrs(&self) -> impl Iterator<Item = u64> {
        let base = self.addr.resolved();
        let stride = u64::from(self.lane_stride);
        (0..u64::from(self.active_lanes)).map(move |lane| base + lane * stride)
    }

    /// Total bytes moved by one execution of the access across all lanes.
    pub fn total_bytes(&self) -> u64 {
        u64::from(self.bytes_per_lane) * u64::from(self.active_lanes)
    }

    /// True when the lanes of this access form one contiguous, word-aligned
    /// region — the case the memory coalescer merges into a single wide
    /// request.
    pub fn is_coalescable(&self) -> bool {
        self.lane_stride == self.bytes_per_lane && self.bytes_per_lane.is_multiple_of(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_address_ignores_execution_count() {
        let a = AddrExpr::fixed(0x42);
        for e in 0..10 {
            assert_eq!(a.eval(e), 0x42);
        }
    }

    #[test]
    fn streaming_address_advances_linearly() {
        let a = AddrExpr::streaming(100, 10);
        assert_eq!(a.eval(0), 100);
        assert_eq!(a.eval(5), 150);
    }

    #[test]
    fn double_buffered_address_alternates() {
        let a = AddrExpr::double_buffered(0, 64);
        assert_eq!(a.eval(0), 0);
        assert_eq!(a.eval(1), 64);
        assert_eq!(a.eval(10), 0);
        assert_eq!(a.eval(11), 64);
    }

    #[test]
    fn rotating_address_cycles() {
        let a = AddrExpr::rotating(1000, 100, 4);
        assert_eq!(a.eval(0), 1000);
        assert_eq!(a.eval(3), 1300);
        assert_eq!(a.eval(4), 1000);
        // A count that is not a power of two takes the modulo path.
        let b = AddrExpr::rotating(1000, 100, 3);
        assert_eq!(b.eval(2), 1200);
        assert_eq!(b.eval(3), 1000);
        assert_eq!(b.eval(7), 1100);
    }

    #[test]
    fn addr_expr_from_u64_is_fixed() {
        let a: AddrExpr = 0xdead_u64.into();
        assert_eq!(a, AddrExpr::fixed(0xdead));
    }

    #[test]
    fn lane_access_geometry() {
        let a = LaneAccess::contiguous_words(AddrExpr::fixed(0), 8);
        assert!(a.is_coalescable());
        assert_eq!(a.total_bytes(), 32);
        assert_eq!(a.lane_addr(3), 12);
    }

    #[test]
    fn strided_lane_access_is_not_coalescable() {
        let a = LaneAccess::strided(AddrExpr::fixed(0), 128, 4, 8);
        assert!(!a.is_coalescable());
        assert_eq!(a.lane_addr(2), 256);
        assert_eq!(a.total_bytes(), 32);
    }

    #[test]
    fn lane_addrs_match_lane_addr() {
        for expr in [
            AddrExpr::fixed(0x40),
            AddrExpr::streaming(0x1000, 256),
            AddrExpr::rotating(0x80, 0x400, 3),
        ] {
            for e in 0..7 {
                let a = LaneAccess::strided(AddrExpr::fixed(expr.eval(e)), 12, 4, 8);
                let each: Vec<u64> = (0..8).map(|lane| a.lane_addr(lane)).collect();
                assert_eq!(a.lane_addrs().collect::<Vec<_>>(), each);
                assert_eq!(each[0], expr.eval(e));
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not resolved")]
    fn unresolved_address_is_rejected_in_debug_builds() {
        let _ = AddrExpr::streaming(0x1000, 256).resolved();
    }

    #[test]
    fn mem_region_names() {
        assert_eq!(MemRegion::Global.name(), "global");
        assert_eq!(MemRegion::Shared.name(), "shared");
        assert_eq!(MemRegion::Accumulator.name(), "accumulator");
    }

    #[test]
    fn remote_window_roundtrips() {
        for (cluster, offset) in [(0u32, 0u64), (1, 0x4000), (7, 0x1_FFFF), (65535, 0)] {
            let addr = remote_smem_addr(cluster, offset);
            assert_eq!(decode_remote_smem(addr), Some((cluster, offset)));
        }
    }

    #[test]
    fn local_addresses_do_not_decode_as_remote() {
        assert_eq!(decode_remote_smem(0), None);
        assert_eq!(decode_remote_smem(0x1_0000), None);
        // Even the 64 GiB per-cluster global partitions stay below the window.
        assert_eq!(decode_remote_smem(7 << 36), None);
    }

    #[test]
    fn remote_window_addresses_stride_within_the_offset_field() {
        // AddrExpr arithmetic (streaming / double buffering) applies to the
        // offset field without touching the window or cluster bits.
        let expr = AddrExpr::double_buffered(remote_smem_addr(2, 0x8000), 0x4000);
        assert_eq!(decode_remote_smem(expr.eval(0)), Some((2, 0x8000)));
        assert_eq!(decode_remote_smem(expr.eval(1)), Some((2, 0xC000)));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn oversized_remote_offset_is_rejected() {
        let _ = remote_smem_addr(0, 1 << 40);
    }
}
