//! The benchmark's contract in one place: workloads, metric names,
//! units, directions and bounds. `BENCHMARK.json` at the repository
//! root states the same table; a test keeps the two equal.

use crate::stats::Better;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figs. 11–13 through the simulator.
    Campaign,
    /// Every host-capable kernel on both host ISAs.
    HostKernels,
    /// The TCP service on tiny matrices: protocol and plumbing bound.
    ServeSmall,
    /// The TCP service under the 2-of-3 vote: execution bound.
    ServeVote,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Campaign,
        Workload::HostKernels,
        Workload::ServeSmall,
        Workload::ServeVote,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::HostKernels => "host-kernels",
            Workload::ServeSmall => "serve-small",
            Workload::ServeVote => "serve-vote",
        }
    }

    /// Parses [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers it loads and which it
    /// leaves idle.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Campaign => {
                "paper Figs. 11-13 on the simulator with verify on; the STM path dominates, \
                 host tier and service idle"
            }
            Workload::HostKernels => {
                "6 host-capable kernels x {scalar, simd} on the 26 full-suite matrices; \
                 stm-host and digests do all the work, the simulator none"
            }
            Workload::ServeSmall => {
                "TCP service, 2 closed-loop clients, 30-90 nnz matrices; frame codec, \
                 admission, handoff and durable append dominate"
            }
            Workload::ServeVote => {
                "TCP service with the 2-of-3 vote on the simulator over the quick catalogue; \
                 prepares and kernel legs dominate, plumbing negligible"
            }
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as printed and as keyed in the result JSON.
    pub name: String,
    /// Unit, e.g. `us`.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// Regression bound as a share of the base median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

fn metric(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, reported by every untraced run. An "op" is
/// the workload's unit of work: one campaign pass, one `Kernel::run`
/// call, or one service request.
///
/// The wall-clock bounds are as wide as the contract allows: on a
/// 2-vCPU KVM guest sharing its host (Intel Xeon, family 6 model 143)
/// the CPU's speed drifted by up to 25% over minutes (a fixed
/// single-threaded loop took 11.3 ms and 14.1 ms twelve minutes apart),
/// moving every timing of ten consecutive runs together. Memory is
/// steadier; its bound covers the campaign's timing-dependent overlap of
/// large matrices (6% spread).
pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    vec![
        metric("setup_s", "s", Lower, Some(0.25)),
        metric("ops_per_s", "1/s", Higher, Some(0.25)),
        metric("p50_us", "us", Lower, Some(0.25)),
        metric("p99_us", "us", Lower, Some(0.25)),
        metric("peak_rss_mb", "MB", Lower, Some(0.20)),
    ]
}

/// The simulated kernels timed per layer.
pub const SIM_KERNELS: [&str; 4] = ["transpose_hism", "transpose_crs", "spmv_hism", "spmv_crs"];

/// The kernels whose prepare and verify stages are timed per layer —
/// the two the campaign runs.
pub const CAMPAIGN_KERNELS: [&str; 2] = ["transpose_hism", "transpose_crs"];

/// The host backends timed per layer; `simd` is whichever ISA the CPU
/// offers (recorded in the run file's fingerprint).
pub const HOST_ISAS: [&str; 2] = ["scalar", "simd"];

/// The verify modes and backends the resilient slot is replayed under.
pub const SLOT_MODES: [&str; 4] = ["off", "checksum", "dual", "vote"];

/// See [`SLOT_MODES`].
pub const SLOT_BACKENDS: [&str; 2] = ["sim", "scalar"];

/// The per-layer metrics, reported by every traced run.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut v = vec![
        metric("dsab.catalogue_s", "s", Lower, None),
        metric("sparse.csr_from_coo_ns_per_nnz", "ns/nnz", Lower, None),
        metric(
            "sparse.transpose_canonical_ns_per_nnz",
            "ns/nnz",
            Lower,
            None,
        ),
        metric("sparse.canonical_digest_ns_per_nnz", "ns/nnz", Lower, None),
        metric("sparse.spmv_ns_per_nnz", "ns/nnz", Lower, None),
        metric("hism.build_ns_per_nnz", "ns/nnz", Lower, None),
        metric("hism.encode_ns_per_nnz", "ns/nnz", Lower, None),
        metric("hism.decode_ns_per_nnz", "ns/nnz", Lower, None),
    ];
    for k in SIM_KERNELS {
        v.push(metric(
            format!("sim.{k}.mcycles_per_s"),
            "Mcycles/s",
            Higher,
            None,
        ));
        v.push(metric(format!("sim.{k}.run_s"), "s", Lower, None));
        v.push(metric(format!("sim.{k}.cycles"), "cycles", Lower, None));
    }
    for k in CAMPAIGN_KERNELS {
        v.push(metric(format!("core.{k}.prepare_s"), "s", Lower, None));
        v.push(metric(format!("core.{k}.verify_s"), "s", Lower, None));
    }
    v.push(metric(
        "core.output_digest_ns_per_nnz",
        "ns/nnz",
        Lower,
        None,
    ));
    v.push(metric(
        "core.run_overhead_ns_per_nnz",
        "ns/nnz",
        Lower,
        None,
    ));
    for k in stm_core::kernels::registry::HOST_CAPABLE {
        for isa in HOST_ISAS {
            v.push(metric(
                format!("host.{k}.{isa}.ns_per_nnz"),
                "ns/nnz",
                Lower,
                None,
            ));
        }
        v.push(metric(
            format!("host.{k}.simd_over_scalar"),
            "ratio",
            Higher,
            None,
        ));
    }
    v.push(metric("bench.parallel_efficiency", "ratio", Higher, None));
    for mode in SLOT_MODES {
        for backend in SLOT_BACKENDS {
            v.push(metric(
                format!("resil.slot_us.{mode}.{backend}"),
                "us",
                Lower,
                None,
            ));
        }
    }
    v.extend([
        metric("obs.journal_seal_ns", "ns", Lower, None),
        metric("obs.trace_overhead_pct", "%", Lower, None),
        metric("obs.conservation_pct", "%", Higher, None),
        metric("serve.frame_codec_ns", "ns", Lower, None),
        metric("serve.results_log_append_us", "us", Lower, None),
        metric("serve.submit_ms", "ms", Lower, None),
        metric("serve.exec_mean_us", "us", Lower, None),
        metric("serve.outside_exec_mean_us", "us", Lower, None),
    ]);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_obs::json::Json;

    fn check(listed: &Json, want: &[Metric], gated: bool) {
        let listed = listed.as_array().expect("metric list");
        assert_eq!(listed.len(), want.len());
        for (j, m) in listed.iter().zip(want) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name.as_str()));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.name())
            );
            let bound = j.get("bound").and_then(Json::as_f64);
            assert_eq!(bound, m.bound, "{}", m.name);
            assert_eq!(bound.is_some(), gated, "{}", m.name);
        }
    }

    #[test]
    fn benchmark_json_states_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let workloads = json.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (j, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(w.name()));
            assert_eq!(j.get("why").and_then(Json::as_str), Some(w.why()));
        }
        check(json.get("end_to_end").unwrap(), &end_to_end(), true);
        check(json.get("per_layer").unwrap(), &per_layer(), false);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|m| m.name)
            .collect();
        let n = names.len();
        assert!(names.iter().all(|s| s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(per_layer().len() <= 128);
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200));
    }
}
