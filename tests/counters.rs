//! One property check over every event-counter struct's `Counters`
//! implementation (the field list given to `virgo_sim::counters!`).
//!
//! Each type starts from a shape (defaults, with non-empty per-channel and
//! per-link vectors where it has them). Its fields are discovered from
//! `to_json` and each one gets a distinct non-zero value. Then:
//!
//! * `from_json(to_json(x))` gives back `x`, and re-encodes to the same
//!   bytes;
//! * `merge` adds every counter, and `x.merge(&y).since(&y)` gives back `x`;
//! * `since` saturates at zero rather than wrapping.

use std::fmt::Debug;

use virgo::{ClusterStats, SchedStats};
use virgo_mem::{
    BackendAttribution, ChannelContentionStats, ClusterContentionStats, ClusterDsmStats, DmaStats,
    DramFaultStats, DramStats, DsmFabricStats, DsmFaultStats, DsmLinkStats, FabricAttribution,
    GlobalMemoryStats, MemoryBackendStats, SmemStats,
};
use virgo_sim::json::{self, Value};
use virgo_sim::{ClusterFaultStats, Counters, EccStats, FaultStats, SplitMix64};
use virgo_simt::CoreStats;
use virgo_sweep::StoreStats;

/// Every integer leaf of `v`, in document order.
fn leaves(v: &Value) -> Vec<u64> {
    match v {
        Value::Object(fields) => fields.iter().flat_map(|(_, f)| leaves(f)).collect(),
        Value::Array(items) => items.iter().flat_map(leaves).collect(),
        other => vec![other.as_u64().unwrap()],
    }
}

fn leaves_of<T: Counters>(x: &T) -> Vec<u64> {
    leaves(&json::parse(&x.to_json()).unwrap())
}

/// Sets each integer leaf of `v` to `*next`, stepping `*next` by `step`.
fn renumber(v: &mut Value, next: &mut u64, step: u64) {
    match v {
        Value::Object(fields) => fields.iter_mut().for_each(|(_, f)| renumber(f, next, step)),
        Value::Array(items) => items.iter_mut().for_each(|i| renumber(i, next, step)),
        Value::Num(raw) => {
            *raw = next.to_string();
            *next += step;
        }
        other => panic!("counters hold only integers, got {other:?}"),
    }
}

/// `shape` with every counter set to a distinct value from `start` on.
fn distinct<T: Counters>(shape: &T, start: u64, step: u64) -> T {
    let mut doc = json::parse(&shape.to_json()).unwrap();
    let mut next = start;
    renumber(&mut doc, &mut next, step);
    T::from_json(&doc).unwrap()
}

fn check<T: Counters + Clone + Debug + PartialEq>(name: &str, shape: T) {
    let mut rng = SplitMix64::new(name.len() as u64);
    for _ in 0..4 {
        let start = 1 + rng.next_below(1 << 40);
        let step = 1 + rng.next_below(1 << 10);
        let x = distinct(&shape, start, step);
        let y = distinct(&shape, start / 2 + 1, step + 1);
        let xs = leaves_of(&x);
        assert!(!xs.is_empty(), "{name} has no counters");
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), xs.len(), "{name}: counters not distinct");
        assert!(xs.iter().all(|&c| c > 0), "{name}: a counter is zero");

        let text = x.to_json();
        let back = T::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, x, "{name}: JSON round trip");
        assert_eq!(back.to_json(), text, "{name}: re-encoded bytes");

        let mut sum = x.clone();
        sum.merge(&y);
        let added: Vec<u64> = xs.iter().zip(leaves_of(&y)).map(|(a, b)| a + b).collect();
        assert_eq!(leaves_of(&sum), added, "{name}: merge adds every counter");
        assert_eq!(sum.since(&y), x, "{name}: merge then since");
        assert!(
            leaves_of(&x.since(&sum)).iter().all(|&c| c == 0),
            "{name}: since saturates"
        );
    }
}

#[test]
fn every_counter_struct_round_trips_merges_and_subtracts() {
    check("CoreStats", CoreStats::default());
    check("SmemStats", SmemStats::default());
    check("GlobalMemoryStats", GlobalMemoryStats::default());
    check("DramStats", DramStats::default());
    check("DramFaultStats", DramFaultStats::default());
    check("DmaStats", DmaStats::default());
    check("DsmLinkStats", DsmLinkStats::default());
    check("ClusterDsmStats", ClusterDsmStats::for_links(3));
    check("DsmFaultStats", DsmFaultStats::default());
    check("DsmFabricStats", DsmFabricStats::default());
    check(
        "FabricAttribution",
        FabricAttribution {
            stats: DsmFabricStats::default(),
            per_cluster: vec![ClusterDsmStats::for_links(2); 2],
            fault: DsmFaultStats::default(),
        },
    );
    check("MemoryBackendStats", MemoryBackendStats::default());
    check("ChannelContentionStats", ChannelContentionStats::default());
    check(
        "ClusterContentionStats",
        ClusterContentionStats::for_channels(2),
    );
    check(
        "BackendAttribution",
        BackendAttribution {
            stats: MemoryBackendStats::default(),
            dram: DramStats::default(),
            dram_channels: vec![DramStats::default(); 2],
            dram_fault: DramFaultStats::default(),
            per_cluster: vec![ClusterContentionStats::for_channels(2); 3],
        },
    );
    check("ClusterStats", ClusterStats::default());
    check("SchedStats", SchedStats::default());
    check("FaultStats", FaultStats::default());
    check("ClusterFaultStats", ClusterFaultStats::default());
    check("EccStats", EccStats::default());
    check("StoreStats", StoreStats::default());
}

#[test]
fn vec_merge_grows_to_the_longer_side_and_since_pairs_elements() {
    let link = |requests| DsmLinkStats {
        requests,
        bytes: 10 * requests,
        stall_cycles: 1,
    };
    let mut short = vec![link(1)];
    short.merge(&vec![link(2), link(3)]);
    assert_eq!(
        short,
        vec![
            DsmLinkStats {
                requests: 3,
                bytes: 30,
                stall_cycles: 2
            },
            link(3)
        ]
    );
    assert_eq!(short.since(&vec![link(1)]), vec![link(2)]);

    // A requester slice sized for fewer links grows the same way.
    let mut slice = ClusterDsmStats::for_links(1);
    slice.merge(&ClusterDsmStats::for_links(4));
    assert_eq!(slice.per_link.len(), 4);
}
