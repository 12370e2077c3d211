//! The storage API behind the sweep service: a [`ReportStore`] trait with
//! memory, disk, remote and tiered implementations, plus the typed
//! [`StoreConfig`] that replaces scattered `std::env::var` reads.
//!
//! Every sweep consumer — benches, examples, integration tests, `virgo-serve`
//! replays — routes report storage through this one interface:
//!
//! * [`MemoryStore`] — `Arc<SimReport>` map with FIFO eviction; the
//!   process-local working set.
//! * [`DiskStore`] — one validated snapshot envelope per key (over
//!   `virgo_store::EntryDir`): atomic temp-file + rename writes and
//!   corrupt-entry quarantine, shared across processes on one host.
//! * [`RemoteStore`] — a `virgo-store` server on the network, shared across
//!   hosts. Failure policy lives here: one reconnect retry per operation,
//!   then after [`RemoteStore::OFFLINE_AFTER`] consecutive failures the
//!   store is marked offline and every subsequent operation degrades to a
//!   local miss/no-op — each one counted in [`StoreStats::unreachable`] —
//!   so **a dead store can never fail a sweep**, only slow its first run.
//! * [`TieredStore`] — memory → disk → remote: read-through with promotion
//!   into the faster tiers, write-through to every tier.
//!
//! Stores are deliberately *policy over transport*: the wire client in
//! `virgo-store` reports every failure and retries nothing, and this module
//! decides what failures mean for a sweep.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use virgo::{SimKey, SimReport};
use virgo_sim::Counters;
use virgo_store::{ClientConfig, EntryDir, Loaded, StoreClient};

/// Which level of the storage hierarchy an implementation (or a hit) lives
/// at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreTier {
    /// Process-local memory.
    Memory,
    /// Host-local disk directory.
    Disk,
    /// Networked `virgo-store` server.
    Remote,
    /// A composite of the above ([`TieredStore`]); never appears on a hit.
    Tiered,
}

impl std::fmt::Display for StoreTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StoreTier::Memory => "memory",
            StoreTier::Disk => "disk",
            StoreTier::Remote => "remote",
            StoreTier::Tiered => "tiered",
        })
    }
}

/// Monotonic per-store counters, surfaced in sweep summaries and bench
/// reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads answered by this store.
    pub hits: u64,
    /// Loads this store could not answer.
    pub misses: u64,
    /// Reports accepted by a save.
    pub puts: u64,
    /// Entries dropped to stay within a volatile capacity (memory tier).
    pub evictions: u64,
    /// Entries rejected as corrupt/stale/misfiled (disk and remote tiers).
    pub rejects: u64,
    /// The subset of `rejects` preserved in a quarantine directory.
    pub quarantined: u64,
    /// Operations skipped or failed because the remote store was
    /// unreachable (each op is charged exactly once, so the total is a
    /// deterministic function of the op count).
    pub unreachable: u64,
    /// Envelope bytes read from disk or the wire.
    pub bytes_read: u64,
    /// Envelope bytes written to disk or the wire.
    pub bytes_written: u64,
    /// Wall-clock microseconds spent in loads.
    pub read_micros: u64,
    /// Wall-clock microseconds spent in saves.
    pub write_micros: u64,
}
virgo_sim::counters!(StoreStats {
    hits,
    misses,
    puts,
    evictions,
    rejects,
    quarantined,
    unreachable,
    bytes_read,
    bytes_written,
    read_micros,
    write_micros,
});

/// A successful load: the report and the tier that answered.
#[derive(Debug, Clone)]
pub struct StoreHit {
    /// The stored report.
    pub report: Arc<SimReport>,
    /// Which tier served it.
    pub tier: StoreTier,
}

/// A place reports live. Implementations must be infallible from the
/// caller's perspective: a load that cannot be answered is a miss, a save
/// that cannot be persisted is dropped (and counted), never an error — the
/// sweep itself must not depend on storage health.
pub trait ReportStore: Send + Sync + std::fmt::Debug {
    /// The tier this store implements.
    fn tier(&self) -> StoreTier;

    /// Looks `key` up; `None` is a miss.
    fn load(&self, key: SimKey) -> Option<StoreHit>;

    /// Persists `report` under `key` (best-effort).
    fn save(&self, key: SimKey, report: &Arc<SimReport>);

    /// Aggregate counters (summed over tiers for composites).
    fn stats(&self) -> StoreStats;

    /// Counters for one tier of the hierarchy (zero when this store does
    /// not contain that tier).
    fn stats_for(&self, tier: StoreTier) -> StoreStats {
        if tier == self.tier() {
            self.stats()
        } else {
            StoreStats::default()
        }
    }

    /// Drops volatile (in-memory) entries; persistent tiers are untouched.
    fn clear_volatile(&self) {}

    /// Number of entries held in volatile storage.
    fn volatile_len(&self) -> usize {
        0
    }

    /// Resets every counter to zero.
    fn reset_stats(&self);
}

// ---------------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct MemoryInner {
    map: HashMap<SimKey, Arc<SimReport>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<SimKey>,
    stats: StoreStats,
}

/// The in-memory tier: an `Arc<SimReport>` map with FIFO eviction beyond a
/// fixed capacity.
#[derive(Debug)]
pub struct MemoryStore {
    inner: Mutex<MemoryInner>,
    capacity: usize,
}

impl MemoryStore {
    /// Creates a store holding at most `capacity` reports (minimum 1).
    pub fn new(capacity: usize) -> Self {
        MemoryStore {
            inner: Mutex::new(MemoryInner::default()),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemoryInner> {
        self.inner.lock().expect("memory store lock")
    }
}

impl ReportStore for MemoryStore {
    fn tier(&self) -> StoreTier {
        StoreTier::Memory
    }

    fn load(&self, key: SimKey) -> Option<StoreHit> {
        let mut inner = self.lock();
        match inner.map.get(&key).cloned() {
            Some(report) => {
                inner.stats.hits += 1;
                Some(StoreHit {
                    report,
                    tier: StoreTier::Memory,
                })
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    fn save(&self, key: SimKey, report: &Arc<SimReport>) {
        let mut inner = self.lock();
        inner.stats.puts += 1;
        if inner.map.insert(key, Arc::clone(report)).is_none() {
            inner.order.push_back(key);
        }
        while inner.map.len() > self.capacity {
            let Some(victim) = inner.order.pop_front() else {
                break;
            };
            if inner.map.remove(&victim).is_some() {
                inner.stats.evictions += 1;
            }
        }
    }

    fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    fn clear_volatile(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.order.clear();
    }

    fn volatile_len(&self) -> usize {
        self.lock().map.len()
    }

    fn reset_stats(&self) {
        self.lock().stats = StoreStats::default();
    }
}

// ---------------------------------------------------------------------------
// Disk
// ---------------------------------------------------------------------------

/// The host-local disk tier: one validated envelope per key over
/// [`virgo_store::EntryDir`] (atomic writes, corrupt-entry quarantine).
#[derive(Debug)]
pub struct DiskStore {
    entries: EntryDir,
    stats: Mutex<StoreStats>,
}

impl DiskStore {
    /// Creates a disk store rooted at `dir` (created lazily on first write),
    /// quarantining rejects under `dir/quarantine/`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_entries(EntryDir::new(dir))
    }

    /// Creates a disk store over an explicit entry directory (e.g. with a
    /// custom quarantine location).
    pub fn with_entries(entries: EntryDir) -> Self {
        DiskStore {
            entries,
            stats: Mutex::new(StoreStats::default()),
        }
    }

    /// The entry directory.
    pub fn entries(&self) -> &EntryDir {
        &self.entries
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreStats> {
        self.stats.lock().expect("disk store stats lock")
    }
}

impl ReportStore for DiskStore {
    fn tier(&self) -> StoreTier {
        StoreTier::Disk
    }

    fn load(&self, key: SimKey) -> Option<StoreHit> {
        let started = Instant::now();
        let loaded = self.entries.load(&key.to_hex());
        let micros = started.elapsed().as_micros() as u64;
        let mut stats = self.lock();
        stats.read_micros += micros;
        match loaded {
            Loaded::Valid(text, report) => {
                stats.hits += 1;
                stats.bytes_read += text.len() as u64;
                Some(StoreHit {
                    report: Arc::new(report),
                    tier: StoreTier::Disk,
                })
            }
            Loaded::Absent => {
                stats.misses += 1;
                None
            }
            Loaded::Quarantined { preserved } => {
                stats.misses += 1;
                stats.rejects += 1;
                if preserved {
                    stats.quarantined += 1;
                }
                None
            }
        }
    }

    fn save(&self, key: SimKey, report: &Arc<SimReport>) {
        let hex = key.to_hex();
        let envelope = report.to_cache_json(&hex);
        let started = Instant::now();
        // Disk-layer failures (read-only FS, full disk) degrade to the
        // faster tiers; they never fail the simulation itself.
        let written = self.entries.store_unchecked(&hex, &envelope).is_ok();
        let micros = started.elapsed().as_micros() as u64;
        let mut stats = self.lock();
        stats.write_micros += micros;
        if written {
            stats.puts += 1;
            stats.bytes_written += envelope.len() as u64;
        }
    }

    fn stats(&self) -> StoreStats {
        *self.lock()
    }

    fn reset_stats(&self) {
        *self.lock() = StoreStats::default();
    }
}

// ---------------------------------------------------------------------------
// Remote
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct RemoteState {
    client: Option<StoreClient>,
    consecutive_failures: u32,
    offline: bool,
}

/// The networked tier: a `virgo-store` server, with the retry-then-degrade
/// policy that keeps a dead store from ever failing a sweep.
#[derive(Debug)]
pub struct RemoteStore {
    addr: String,
    config: ClientConfig,
    state: Mutex<RemoteState>,
    stats: Mutex<StoreStats>,
}

impl RemoteStore {
    /// Consecutive failed operations after which the store is declared
    /// offline and every later operation short-circuits to a counted local
    /// miss/no-op (no more connection attempts, no more timeouts).
    pub const OFFLINE_AFTER: u32 = 3;

    /// Creates a remote store for the server at `addr` (e.g.
    /// `"127.0.0.1:7171"`) with default timeouts. No connection is made
    /// until the first operation.
    pub fn new(addr: impl Into<String>) -> Self {
        Self::with_config(addr, ClientConfig::default())
    }

    /// Creates a remote store with explicit timeouts.
    pub fn with_config(addr: impl Into<String>, config: ClientConfig) -> Self {
        RemoteStore {
            addr: addr.into(),
            config,
            state: Mutex::new(RemoteState::default()),
            stats: Mutex::new(StoreStats::default()),
        }
    }

    /// The server address this store targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// True once the store has been declared offline.
    pub fn is_offline(&self) -> bool {
        self.state.lock().expect("remote store lock").offline
    }

    fn lock_stats(&self) -> std::sync::MutexGuard<'_, StoreStats> {
        self.stats.lock().expect("remote store stats lock")
    }

    /// Runs `op` against a connected client with the degrade policy: skip
    /// (and charge `unreachable`) when offline; connect on demand; retry
    /// exactly once on a transport error (the connection may simply have
    /// idled out); declare the store offline after
    /// [`OFFLINE_AFTER`](RemoteStore::OFFLINE_AFTER) consecutive failures.
    /// Every operation that does not reach the server is charged to
    /// `unreachable` exactly once.
    fn with_client<T>(&self, op: impl Fn(&mut StoreClient) -> std::io::Result<T>) -> Option<T> {
        let mut state = self.state.lock().expect("remote store lock");
        if state.offline {
            self.lock_stats().unreachable += 1;
            return None;
        }
        for _attempt in 0..2 {
            if state.client.is_none() {
                match StoreClient::connect_with(&self.addr, self.config) {
                    Ok(client) => state.client = Some(client),
                    Err(_) => break,
                }
            }
            let client = state.client.as_mut().expect("client just ensured");
            match op(client) {
                Ok(value) => {
                    state.consecutive_failures = 0;
                    return Some(value);
                }
                Err(_) => {
                    // The connection is suspect (idled out, server bounced,
                    // frame desync): drop it and retry once with a fresh one.
                    state.client = None;
                }
            }
        }
        state.client = None;
        state.consecutive_failures += 1;
        if state.consecutive_failures >= Self::OFFLINE_AFTER {
            state.offline = true;
        }
        self.lock_stats().unreachable += 1;
        None
    }
}

impl ReportStore for RemoteStore {
    fn tier(&self) -> StoreTier {
        StoreTier::Remote
    }

    fn load(&self, key: SimKey) -> Option<StoreHit> {
        let hex = key.to_hex();
        let started = Instant::now();
        let fetched = self.with_client(|client| client.get(&hex));
        let micros = started.elapsed().as_micros() as u64;
        let mut stats = self.lock_stats();
        stats.read_micros += micros;
        let text = match fetched {
            Some(Some(text)) => text,
            Some(None) => {
                stats.misses += 1;
                return None;
            }
            None => return None, // unreachable, already charged
        };
        stats.bytes_read += text.len() as u64;
        // Never trust the wire: re-validate the envelope against the key it
        // was requested under before serving it.
        match SimReport::from_cache_json(&text, &hex) {
            Ok(report) => {
                stats.hits += 1;
                Some(StoreHit {
                    report: Arc::new(report),
                    tier: StoreTier::Remote,
                })
            }
            Err(_) => {
                stats.misses += 1;
                stats.rejects += 1;
                None
            }
        }
    }

    fn save(&self, key: SimKey, report: &Arc<SimReport>) {
        let hex = key.to_hex();
        let envelope = report.to_cache_json(&hex);
        let started = Instant::now();
        let accepted = self.with_client(|client| client.put(&hex, &envelope));
        let micros = started.elapsed().as_micros() as u64;
        let mut stats = self.lock_stats();
        stats.write_micros += micros;
        match accepted {
            Some(true) => {
                stats.puts += 1;
                stats.bytes_written += envelope.len() as u64;
            }
            Some(false) => stats.rejects += 1, // the server refused it
            None => {}                         // unreachable, already charged
        }
    }

    fn stats(&self) -> StoreStats {
        *self.lock_stats()
    }

    fn reset_stats(&self) {
        *self.lock_stats() = StoreStats::default();
        let mut state = self.state.lock().expect("remote store lock");
        // Give a previously dead store a fresh chance: stats resets mark
        // measurement-phase boundaries (benches), not sweep-internal points.
        state.consecutive_failures = 0;
        state.offline = false;
    }
}

// ---------------------------------------------------------------------------
// Tiered
// ---------------------------------------------------------------------------

/// Memory → disk → remote composition: read-through with promotion into
/// every faster tier, write-through to every tier.
#[derive(Debug)]
pub struct TieredStore {
    tiers: Vec<Box<dyn ReportStore>>,
}

impl TieredStore {
    /// Composes `tiers` in lookup order (fastest first).
    ///
    /// # Panics
    ///
    /// Panics when `tiers` is empty.
    pub fn new(tiers: Vec<Box<dyn ReportStore>>) -> Self {
        assert!(!tiers.is_empty(), "a tiered store needs at least one tier");
        TieredStore { tiers }
    }

    /// The tiers, fastest first.
    pub fn tiers(&self) -> &[Box<dyn ReportStore>] {
        &self.tiers
    }
}

impl ReportStore for TieredStore {
    fn tier(&self) -> StoreTier {
        StoreTier::Tiered
    }

    fn load(&self, key: SimKey) -> Option<StoreHit> {
        for (depth, tier) in self.tiers.iter().enumerate() {
            if let Some(hit) = tier.load(key) {
                // Promote into every faster tier so the next lookup stops
                // earlier.
                for faster in &self.tiers[..depth] {
                    faster.save(key, &hit.report);
                }
                return Some(hit);
            }
        }
        None
    }

    fn save(&self, key: SimKey, report: &Arc<SimReport>) {
        for tier in &self.tiers {
            tier.save(key, report);
        }
    }

    fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for t in &self.tiers {
            total.merge(&t.stats());
        }
        total
    }

    fn stats_for(&self, tier: StoreTier) -> StoreStats {
        let mut total = StoreStats::default();
        for t in &self.tiers {
            total.merge(&t.stats_for(tier));
        }
        total
    }

    fn clear_volatile(&self) {
        for tier in &self.tiers {
            tier.clear_volatile();
        }
    }

    fn volatile_len(&self) -> usize {
        self.tiers.iter().map(|t| t.volatile_len()).sum()
    }

    fn reset_stats(&self) {
        for tier in &self.tiers {
            tier.reset_stats();
        }
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// The workspace's conventional disk-cache directory,
/// `<workspace>/target/sweep-cache`.
pub fn workspace_cache_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/sweep-cache"
    ))
}

/// Typed storage configuration: every environment knob parsed in one place.
///
/// | variable | meaning |
/// |---|---|
/// | `VIRGO_SWEEP_CACHE` | disk tier: unset/`on` → `target/sweep-cache/`, `off`/`0`/empty → disabled, else a directory path |
/// | `VIRGO_SWEEP_STORE` | remote tier: unset/`off`/`0`/empty → disabled, else a `host:port` server address |
/// | `VIRGO_SWEEP_QUARANTINE` | quarantine directory override (default `<disk dir>/quarantine/`) |
///
/// The disk tier **defaults on**: a [`SimKey`] digests the simulator's own
/// source tree (`VIRGO_SOURCE_DIGEST`, computed by `virgo`'s build script)
/// alongside the simulation inputs, so entries written by an older build of
/// the model miss cleanly instead of serving stale reports — the equivalence
/// and fingerprint tests stay honest even under a persistent shared cache.
/// Set `VIRGO_SWEEP_CACHE=off` for cold-cache measurements (or use
/// `SweepService::in_memory`, as the sweep benches do).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// In-memory tier capacity (reports).
    pub memory_capacity: usize,
    /// Disk tier directory, `None` to disable.
    pub disk_dir: Option<PathBuf>,
    /// Remote tier server address (`host:port`), `None` to disable.
    pub remote_addr: Option<String>,
    /// Quarantine directory override for the disk tier.
    pub quarantine_dir: Option<PathBuf>,
}

impl StoreConfig {
    /// Default in-memory capacity: comfortably holds the full paper grid
    /// (4 designs × 3 shapes × 4 cluster counts × 2 modes) many times over.
    pub const DEFAULT_MEMORY_CAPACITY: usize = 1024;

    /// Memory-only configuration.
    pub fn in_memory(capacity: usize) -> Self {
        StoreConfig {
            memory_capacity: capacity,
            disk_dir: None,
            remote_addr: None,
            quarantine_dir: None,
        }
    }

    /// Reads the process environment — the only place these variables are
    /// consulted.
    pub fn from_env() -> Self {
        let get = |name: &str| std::env::var(name).ok();
        Self::parse(
            get("VIRGO_SWEEP_CACHE").as_deref(),
            get("VIRGO_SWEEP_STORE").as_deref(),
            get("VIRGO_SWEEP_QUARANTINE").as_deref(),
        )
    }

    /// Pure parse of the three knobs (unit-testable without touching the
    /// process environment, which would race under parallel tests).
    pub fn parse(cache: Option<&str>, store: Option<&str>, quarantine: Option<&str>) -> Self {
        let off = |v: &str| v.is_empty() || v.eq_ignore_ascii_case("off") || v == "0";
        let disk_dir = match cache {
            None => Some(workspace_cache_dir()),
            Some(v) if off(v) => None,
            Some(v) if v.eq_ignore_ascii_case("on") => Some(workspace_cache_dir()),
            Some(path) => Some(PathBuf::from(path)),
        };
        let remote_addr = match store {
            None => None,
            Some(v) if off(v) => None,
            Some(addr) => Some(addr.to_string()),
        };
        StoreConfig {
            memory_capacity: Self::DEFAULT_MEMORY_CAPACITY,
            disk_dir,
            remote_addr,
            quarantine_dir: quarantine.filter(|v| !v.is_empty()).map(PathBuf::from),
        }
    }

    /// Sets (or disables) the disk tier.
    #[must_use]
    pub fn with_disk_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.disk_dir = dir;
        self
    }

    /// Sets (or disables) the remote tier.
    #[must_use]
    pub fn with_remote_addr(mut self, addr: Option<String>) -> Self {
        self.remote_addr = addr;
        self
    }

    /// Builds the store this configuration describes: the memory tier,
    /// then disk and remote tiers when configured (a single tier is
    /// returned unwrapped).
    pub fn build_store(&self) -> Box<dyn ReportStore> {
        let mut tiers: Vec<Box<dyn ReportStore>> =
            vec![Box::new(MemoryStore::new(self.memory_capacity))];
        if let Some(dir) = &self.disk_dir {
            let mut entries = EntryDir::new(dir);
            if let Some(quarantine) = &self.quarantine_dir {
                entries = entries.with_quarantine(quarantine);
            }
            tiers.push(Box::new(DiskStore::with_entries(entries)));
        }
        if let Some(addr) = &self.remote_addr {
            tiers.push(Box::new(RemoteStore::new(addr.clone())));
        }
        if tiers.len() == 1 {
            tiers.pop().expect("one tier")
        } else {
            Box::new(TieredStore::new(tiers))
        }
    }
}

impl Default for StoreConfig {
    /// The environment-governed default ([`StoreConfig::from_env`]).
    fn default() -> Self {
        Self::from_env()
    }
}

/// The disk directory the *default* services use, governed by
/// `VIRGO_SWEEP_CACHE` (see [`StoreConfig`] for the full table and the
/// on-by-default soundness argument).
pub fn default_disk_dir() -> Option<PathBuf> {
    StoreConfig::from_env().disk_dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use virgo::{Gpu, GpuConfig, SimMode};
    use virgo_isa::{DataType, Kernel, KernelInfo, ProgramBuilder, WarpAssignment, WarpOp};

    fn tiny(ops: u32) -> (SimKey, Arc<SimReport>) {
        let mut b = ProgramBuilder::new();
        b.op_n(
            ops,
            WarpOp::Alu {
                rf_reads: 1,
                rf_writes: 1,
            },
        );
        let kernel = Kernel::new(
            KernelInfo::new("store-unit-test", 0, DataType::Fp16),
            vec![WarpAssignment::new(0, 0, StdArc::new(b.build()))],
        );
        let config = GpuConfig::virgo();
        let key = SimKey::digest(&config, &kernel, 100_000, SimMode::FastForward);
        let report = Gpu::new(config).run(&kernel, 100_000).unwrap();
        (key, Arc::new(report))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "virgo-store-unit-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_store_fifo_evicts_and_counts() {
        let store = MemoryStore::new(2);
        let (key, report) = tiny(1);
        assert!(store.load(key).is_none());
        store.save(key, &report);
        let hit = store.load(key).expect("stored entry must hit");
        assert_eq!(hit.tier, StoreTier::Memory);
        assert!(Arc::ptr_eq(&hit.report, &report));
        // Two more distinct keys evict the first (FIFO).
        for ops in [2u32, 3] {
            let (k, r) = tiny(ops);
            store.save(k, &r);
        }
        assert!(store.load(key).is_none());
        let stats = store.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.puts, 3);
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(store.volatile_len(), 2);
        store.clear_volatile();
        assert_eq!(store.volatile_len(), 0);
    }

    #[test]
    fn disk_store_roundtrips_and_quarantines() {
        let dir = temp_dir("disk");
        let store = DiskStore::new(&dir);
        let (key, report) = tiny(4);
        assert!(store.load(key).is_none());
        store.save(key, &report);
        let hit = store.load(key).expect("saved entry must hit");
        assert_eq!(hit.tier, StoreTier::Disk);
        assert_eq!(
            format!("{:?}", *hit.report),
            format!("{:?}", *report),
            "disk round-trip must be bit-identical"
        );
        // Corrupt the entry; next load must quarantine and miss.
        let path = store.entries().entry_path(&key.to_hex());
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.truncate(text.len() / 2);
        std::fs::write(&path, text).unwrap();
        assert!(store.load(key).is_none());
        let stats = store.stats();
        assert_eq!((stats.rejects, stats.quarantined), (1, 1));
        assert!(stats.bytes_written > 0);
        assert!(stats.bytes_read > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remote_store_against_dead_address_degrades_deterministically() {
        // Port 9 (discard) on localhost is refused immediately.
        let store = RemoteStore::new("127.0.0.1:9");
        let (key, report) = tiny(2);
        let ops = 5;
        for _ in 0..ops {
            assert!(store.load(key).is_none());
        }
        store.save(key, &report);
        let stats = store.stats();
        assert_eq!(
            stats.unreachable,
            ops + 1,
            "every op against a dead store is charged exactly once"
        );
        assert!(store.is_offline(), "the store must be declared offline");
        assert_eq!(stats.hits + stats.misses + stats.puts, 0);
        // A stats reset re-arms the store for a fresh measurement phase.
        store.reset_stats();
        assert!(!store.is_offline());
        assert_eq!(store.stats(), StoreStats::default());
    }

    #[test]
    fn tiered_store_promotes_hits_into_faster_tiers() {
        let dir = temp_dir("tiered");
        let tiered = TieredStore::new(vec![
            Box::new(MemoryStore::new(8)),
            Box::new(DiskStore::new(&dir)),
        ]);
        let (key, report) = tiny(5);
        tiered.save(key, &report); // write-through: memory + disk
        assert_eq!(tiered.volatile_len(), 1);
        tiered.clear_volatile();
        assert_eq!(tiered.volatile_len(), 0);
        let hit = tiered.load(key).expect("disk tier must answer");
        assert_eq!(hit.tier, StoreTier::Disk);
        assert_eq!(
            tiered.volatile_len(),
            1,
            "the hit must be promoted into memory"
        );
        let again = tiered.load(key).expect("promoted entry must hit memory");
        assert_eq!(again.tier, StoreTier::Memory);
        // Per-tier stats stay separable through the composite.
        assert_eq!(tiered.stats_for(StoreTier::Memory).hits, 1);
        assert_eq!(tiered.stats_for(StoreTier::Disk).hits, 1);
        assert_eq!(tiered.stats_for(StoreTier::Remote), StoreStats::default());
        assert_eq!(tiered.stats().hits, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_config_parse_covers_every_knob() {
        // Defaults: disk on (conventional dir), no remote, no quarantine.
        let config = StoreConfig::parse(None, None, None);
        assert_eq!(config.disk_dir, Some(workspace_cache_dir()));
        assert_eq!(config.remote_addr, None);
        assert_eq!(config.quarantine_dir, None);
        assert_eq!(config.memory_capacity, StoreConfig::DEFAULT_MEMORY_CAPACITY);

        // Disk off, in all its spellings.
        for off in ["off", "OFF", "0", ""] {
            assert_eq!(StoreConfig::parse(Some(off), None, None).disk_dir, None);
        }
        // Disk explicitly on, or an explicit path.
        assert_eq!(
            StoreConfig::parse(Some("on"), None, None).disk_dir,
            Some(workspace_cache_dir())
        );
        assert_eq!(
            StoreConfig::parse(Some("/tmp/x"), None, None).disk_dir,
            Some(PathBuf::from("/tmp/x"))
        );

        // Remote: off spellings and an address.
        for off in ["off", "0", ""] {
            assert_eq!(StoreConfig::parse(None, Some(off), None).remote_addr, None);
        }
        assert_eq!(
            StoreConfig::parse(None, Some("10.0.0.7:7171"), None).remote_addr,
            Some("10.0.0.7:7171".to_string())
        );

        // Quarantine override.
        assert_eq!(
            StoreConfig::parse(None, None, Some("/tmp/q")).quarantine_dir,
            Some(PathBuf::from("/tmp/q"))
        );
        assert_eq!(
            StoreConfig::parse(None, None, Some("")).quarantine_dir,
            None
        );
    }

    #[test]
    fn store_config_builds_the_tiers_it_describes() {
        let memory_only = StoreConfig::in_memory(4).build_store();
        assert_eq!(memory_only.tier(), StoreTier::Memory);

        let dir = temp_dir("config-build");
        let with_disk = StoreConfig::in_memory(4)
            .with_disk_dir(Some(dir.clone()))
            .build_store();
        assert_eq!(with_disk.tier(), StoreTier::Tiered);

        let full = StoreConfig::in_memory(4)
            .with_disk_dir(Some(dir.clone()))
            .with_remote_addr(Some("127.0.0.1:9".to_string()))
            .build_store();
        assert_eq!(full.tier(), StoreTier::Tiered);
        // The composite exposes all three tiers through stats_for: exercise
        // one op and check the remote tier was charged.
        let (key, _) = tiny(6);
        assert!(full.load(key).is_none());
        assert_eq!(full.stats_for(StoreTier::Memory).misses, 1);
        assert_eq!(full.stats_for(StoreTier::Disk).misses, 1);
        assert_eq!(full.stats_for(StoreTier::Remote).unreachable, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
