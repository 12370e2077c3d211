//! Multi-tenant request streams: who asks for what, when.
//!
//! A serving trace is a merged sequence of [`Request`]s from several
//! [`TenantSpec`]s, each an independent Poisson-like arrival process over a
//! set of workload classes. Generation is fully deterministic: every tenant
//! derives its own [`SplitMix64`] stream from the trace seed, inter-arrival
//! gaps come from the exponential inverse CDF over that stream, and the
//! merged trace is sorted by `(arrival, tenant, sequence)`. The same seed
//! always yields the byte-identical trace, so serving experiments are
//! replayable — including against a fault plan installed on the machine.

use virgo::GpuConfig;
use virgo_isa::Kernel;
use virgo_kernels::{build_flash_attention, build_gemm, AttentionShape, GemmShape};
use virgo_sim::SplitMix64;

/// The workload class of one request: which kernel family and shape the
/// tenant is asking the machine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// One GEMM of the given shape (Section 6.1 workloads).
    Gemm(GemmShape),
    /// One FlashAttention-3 forward pass (Section 6.2 workloads).
    Attention(AttentionShape),
}

impl RequestClass {
    /// Total multiply-accumulates of the request — the cost estimate the
    /// shortest-job arbitration policy orders by.
    pub fn cost_macs(&self) -> u64 {
        match self {
            RequestClass::Gemm(shape) => shape.mac_ops(),
            RequestClass::Attention(shape) => shape.gemm_mac_ops(),
        }
    }

    /// A short label such as `"gemm:256x256x256"`.
    pub fn label(&self) -> String {
        match self {
            RequestClass::Gemm(shape) => format!("gemm:{shape}"),
            RequestClass::Attention(shape) => format!("attn:{shape}"),
        }
    }

    /// Builds the kernel for this request against `config` — normally the
    /// machine configuration restricted to the request's cluster allocation
    /// via [`GpuConfig::with_allocation`].
    pub fn build(&self, config: &GpuConfig) -> Kernel {
        match self {
            RequestClass::Gemm(shape) => build_gemm(config, *shape),
            RequestClass::Attention(shape) => build_flash_attention(config, *shape),
        }
    }
}

impl std::fmt::Display for RequestClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// One serving request: a tenant asking for a kernel at an absolute cycle.
#[derive(Debug, Clone)]
pub struct Request {
    /// Trace-unique id, assigned in merged arrival order.
    pub id: u64,
    /// Name of the issuing tenant.
    pub tenant: String,
    /// The workload the request runs.
    pub class: RequestClass,
    /// Absolute machine cycle the request arrives.
    pub arrival: u64,
    /// Cluster slots the request asks for (clamped to the machine size at
    /// admission).
    pub clusters: u32,
    /// Residency budget in cycles before the request is evicted as timed
    /// out.
    pub budget: u64,
}

/// One tenant's arrival process: rate, workload mix and resource ask.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name, used for per-tenant report slices and fair arbitration.
    pub name: String,
    /// Mean inter-arrival gap in cycles (the exponential distribution's
    /// mean; smaller = higher offered load).
    pub mean_interarrival: u64,
    /// Workload classes, drawn uniformly per request.
    pub classes: Vec<RequestClass>,
    /// Cluster slots each request asks for.
    pub clusters_per_request: u32,
    /// Residency budget per request, in cycles.
    pub budget: u64,
}

impl TenantSpec {
    /// A tenant issuing the smallest paper GEMM on one cluster with a
    /// generous budget; tune with the `with_*` builders.
    pub fn new(name: &str, mean_interarrival: u64) -> Self {
        TenantSpec {
            name: name.to_string(),
            mean_interarrival: mean_interarrival.max(1),
            classes: vec![RequestClass::Gemm(GemmShape::square(128))],
            clusters_per_request: 1,
            budget: 50_000_000,
        }
    }

    /// Replaces the workload mix. Must not be empty.
    #[must_use]
    pub fn with_classes(mut self, classes: Vec<RequestClass>) -> Self {
        assert!(!classes.is_empty(), "a tenant needs at least one class");
        self.classes = classes;
        self
    }

    /// Sets the cluster count each request asks for.
    #[must_use]
    pub fn with_clusters(mut self, clusters: u32) -> Self {
        self.clusters_per_request = clusters.max(1);
        self
    }
}

/// A uniform draw in the half-open unit interval `(0, 1]` — open at zero so
/// the exponential inverse CDF below never takes `ln(0)`.
fn unit_open(rng: &mut SplitMix64) -> f64 {
    ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// One exponential inter-arrival gap with the given mean, in whole cycles
/// (at least 1, so arrivals within a tenant are strictly increasing).
fn exponential_gap(rng: &mut SplitMix64, mean: u64) -> u64 {
    let sample = -unit_open(rng).ln() * mean as f64;
    1 + sample.min(u64::MAX as f64 / 2.0) as u64
}

/// Generates the merged trace: `per_tenant` requests from every tenant,
/// sorted by arrival (ties broken by tenant order, then issue order) with
/// ids assigned in that merged order.
pub fn generate_trace(tenants: &[TenantSpec], per_tenant: usize, seed: u64) -> Vec<Request> {
    let mut raw: Vec<(u64, usize, usize, Request)> = Vec::new();
    for (t_idx, tenant) in tenants.iter().enumerate() {
        // Decorrelate tenant streams without hashing: SplitMix64's output
        // function scrambles any additive seed schedule.
        let mut rng =
            SplitMix64::new(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(1 + t_idx as u64)));
        let mut arrival = 0u64;
        for seq in 0..per_tenant {
            arrival = arrival.saturating_add(exponential_gap(&mut rng, tenant.mean_interarrival));
            let class = tenant.classes[rng.next_below(tenant.classes.len() as u64) as usize];
            raw.push((
                arrival,
                t_idx,
                seq,
                Request {
                    id: 0,
                    tenant: tenant.name.clone(),
                    class,
                    arrival,
                    clusters: tenant.clusters_per_request,
                    budget: tenant.budget,
                },
            ));
        }
    }
    raw.sort_by_key(|(arrival, t_idx, seq, _)| (*arrival, *t_idx, *seq));
    raw.into_iter()
        .enumerate()
        .map(|(id, (_, _, _, mut req))| {
            req.id = id as u64;
            req
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new("a", 10_000),
            TenantSpec::new("b", 25_000)
                .with_classes(vec![RequestClass::Gemm(GemmShape::square(256))]),
        ]
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let t = two_tenants();
        let x = generate_trace(&t, 16, 7);
        let y = generate_trace(&t, 16, 7);
        assert_eq!(x.len(), 32);
        for (a, b) in x.iter().zip(&y) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.tenant, b.tenant);
            assert_eq!(a.class, b.class);
        }
        let z = generate_trace(&t, 16, 8);
        assert!(x.iter().zip(&z).any(|(a, b)| a.arrival != b.arrival));
    }

    #[test]
    fn trace_is_sorted_with_sequential_ids() {
        let trace = generate_trace(&two_tenants(), 8, 42);
        for (i, pair) in trace.windows(2).enumerate() {
            assert!(pair[0].arrival <= pair[1].arrival, "at {i}");
        }
        for (i, req) in trace.iter().enumerate() {
            assert_eq!(req.id, i as u64);
            assert!(req.arrival > 0);
        }
    }

    #[test]
    fn higher_rate_means_denser_arrivals() {
        let fast = generate_trace(&[TenantSpec::new("fast", 1_000)], 64, 1);
        let slow = generate_trace(&[TenantSpec::new("slow", 100_000)], 64, 1);
        assert!(fast.last().unwrap().arrival < slow.last().unwrap().arrival);
    }

    #[test]
    fn class_costs_order_by_shape() {
        let small = RequestClass::Gemm(GemmShape::square(128));
        let big = RequestClass::Gemm(GemmShape::square(512));
        assert!(small.cost_macs() < big.cost_macs());
        assert_eq!(small.label(), "gemm:128x128x128");
    }
}
