//! SIMT core configuration.

use virgo_sim::{StableHash, StableHasher};

/// Microarchitectural parameters of one SIMT core (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Hardware warp slots per core.
    pub warps: u32,
    /// SIMT lanes per warp.
    pub lanes: u32,
    /// Instructions issued per cycle.
    pub issue_width: u32,
    /// Integer ALU pipes per lane group (instructions per cycle).
    pub alu_units: u32,
    /// FPU pipes per lane group (instructions per cycle).
    pub fpu_units: u32,
    /// Memory instructions accepted by the LSU per cycle.
    pub lsu_width: u32,
    /// Load/store queue entries (maximum outstanding memory instructions per
    /// core).
    pub lsq_entries: u32,
    /// Register file capacity in KiB (integer + floating point).
    pub regfile_kib: u32,
    /// Cycles between busy-register polls while a warp spins in
    /// `virgo_fence` (used to account polling instructions, Section 4.5.1).
    pub fence_poll_interval: u32,
    /// Instructions fetched per L1I cache access (line granularity): a
    /// power of two, so the per-issue fetch check is a mask;
    /// [`crate::SimtCore::new`] rejects any other value.
    pub instrs_per_icache_access: u32,
}

impl CoreConfig {
    /// The Table 2 configuration: 8 warps × 8 lanes, 2 ALUs, 1 FPU,
    /// 32-entry LSQ, 16 KiB register file.
    pub fn vortex_default() -> Self {
        CoreConfig {
            warps: 8,
            lanes: 8,
            issue_width: 1,
            alu_units: 2,
            fpu_units: 1,
            lsu_width: 1,
            lsq_entries: 32,
            regfile_kib: 16,
            fence_poll_interval: 8,
            instrs_per_icache_access: 8,
        }
    }

    /// Total threads resident on the core.
    pub fn threads(&self) -> u32 {
        self.warps * self.lanes
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::vortex_default()
    }
}

impl StableHash for CoreConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(u64::from(self.warps));
        h.write_u64(u64::from(self.lanes));
        h.write_u64(u64::from(self.issue_width));
        h.write_u64(u64::from(self.alu_units));
        h.write_u64(u64::from(self.fpu_units));
        h.write_u64(u64::from(self.lsu_width));
        h.write_u64(u64::from(self.lsq_entries));
        h.write_u64(u64::from(self.regfile_kib));
        h.write_u64(u64::from(self.fence_poll_interval));
        h.write_u64(u64::from(self.instrs_per_icache_access));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let c = CoreConfig::vortex_default();
        assert_eq!(c.warps, 8);
        assert_eq!(c.lanes, 8);
        assert_eq!(c.threads(), 64);
        assert_eq!(c.alu_units, 2);
        assert_eq!(c.fpu_units, 1);
        assert_eq!(c.lsq_entries, 32);
    }

    #[test]
    fn default_trait_matches_constructor() {
        assert_eq!(CoreConfig::default(), CoreConfig::vortex_default());
    }
}
