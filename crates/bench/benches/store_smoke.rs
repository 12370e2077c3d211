//! CI smoke gate for the shared report store: sweep a small grid through a
//! `virgo-store` server and require a *separate* process to answer from it.
//!
//! Two ways to run:
//!
//! * **CI (two processes)** — a `virgo-store` server is started out-of-band
//!   and named via `VIRGO_SWEEP_STORE=host:port`; this bench is then run
//!   twice. The first invocation (`VIRGO_STORE_SMOKE_EXPECT=cold`) computes
//!   every point and write-through PUTs the reports; the second
//!   (`VIRGO_STORE_SMOKE_EXPECT=warm`) is a fresh process with an empty
//!   memory layer and must answer ≥ 90% of the grid straight from the store,
//!   at no more than [`MAX_READ_MS_PER_HIT`] of remote read time per hit.
//! * **Standalone** — with no `VIRGO_SWEEP_STORE`, the bench spawns an
//!   in-process server on an ephemeral port and runs both phases itself, so
//!   `cargo bench --bench store_smoke` exercises the same contract locally.
//!
//! Both modes use memory+remote services only (no disk layer), so every
//! warm answer provably crossed the wire.

use std::time::Instant;

use virgo::DesignKind;
use virgo_kernels::GemmShape;
use virgo_store::{EntryDir, StoreServer};
use virgo_sweep::{Query, StoreConfig, StoreTier, SweepService};

/// Ceiling on the warm phase's mean remote read time per hit. A reply that
/// stalls on Nagle's algorithm against a delayed ACK costs ~40 ms; a
/// healthy localhost read of a few-KB entry takes well under a millisecond.
const MAX_READ_MS_PER_HIT: f64 = 10.0;

/// The sharded 256³ GEMM grid: every design at N ∈ {1, 2, 4} clusters —
/// the same grid `sweep_smoke` gates the disk layer with.
fn grid() -> Vec<Query> {
    let shape = GemmShape::square(256);
    DesignKind::all()
        .into_iter()
        .flat_map(|design| {
            [1u32, 2, 4]
                .into_iter()
                .map(move |n| Query::new(design, shape).clusters(n))
        })
        .collect()
}

/// A fresh process-equivalent: empty memory layer over the remote store
/// only, so every hit must have come over the wire.
fn service_for(addr: &str) -> SweepService {
    SweepService::from_config(
        &StoreConfig::in_memory(StoreConfig::DEFAULT_MEMORY_CAPACITY)
            .with_remote_addr(Some(addr.to_string())),
    )
}

/// Sweeps the grid against `addr` and gates the phase's contract.
fn run_phase(addr: &str, phase: &str) {
    let points = grid();
    let service = service_for(addr);
    let start = Instant::now();
    let outcomes = service.run_all(&points);
    let seconds = start.elapsed().as_secs_f64();
    let hits = outcomes.iter().filter(|o| o.from_cache).count();
    let stats = service.cache_stats();
    println!(
        "store-smoke [{phase}]: {hits}/{} from the store in {seconds:.3}s \
         ({} remote hits, {} misses, {} unreachable ops)",
        points.len(),
        stats.remote_hits,
        stats.misses,
        stats.store_unreachable
    );
    assert_eq!(
        stats.store_unreachable, 0,
        "store at {addr} must be reachable for the whole {phase} phase"
    );
    match phase {
        "cold" => assert_eq!(
            hits, 0,
            "cold phase expects an empty store; found pre-existing entries"
        ),
        "warm" => {
            let rate = stats.remote_hits as f64 / points.len() as f64;
            assert!(
                rate >= 0.9,
                "warm phase must answer >= 90% of the grid from the store: \
                 {:.0}% ({}/{})",
                rate * 100.0,
                stats.remote_hits,
                points.len()
            );
            let read_micros = service
                .cache()
                .store_stats_for(StoreTier::Remote)
                .read_micros;
            let ms_per_hit = read_micros as f64 / 1000.0 / stats.remote_hits as f64;
            println!("store-smoke [warm]: {ms_per_hit:.3} ms of remote read time per hit");
            assert!(
                ms_per_hit <= MAX_READ_MS_PER_HIT,
                "warm phase remote reads must average <= {MAX_READ_MS_PER_HIT} ms per hit: \
                 {ms_per_hit:.3} ms ({read_micros} us over {} hits)",
                stats.remote_hits
            );
        }
        other => panic!("unknown VIRGO_STORE_SMOKE_EXPECT phase {other:?}"),
    }
    println!("store-smoke [{phase}] gate passed");
}

fn main() {
    match StoreConfig::from_env().remote_addr {
        Some(addr) => {
            // CI mode: the server lives in another process; which side of
            // the contract to gate comes from the environment.
            let phase =
                std::env::var("VIRGO_STORE_SMOKE_EXPECT").unwrap_or_else(|_| "cold".to_string());
            run_phase(&addr, &phase);
        }
        None => {
            // Standalone mode: spawn an in-process server and run both
            // phases against it with fresh process-equivalent services.
            let dir =
                std::env::temp_dir().join(format!("virgo-store-smoke-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut store = StoreServer::bind("127.0.0.1:0", EntryDir::new(&dir))
                .expect("bind in-process report store")
                .spawn()
                .expect("spawn in-process report store");
            let addr = store.addr().to_string();
            println!("store-smoke: in-process store serving on {addr}");
            run_phase(&addr, "cold");
            run_phase(&addr, "warm");
            store.stop();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
