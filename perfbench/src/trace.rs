//! Simulated per-layer numbers of the traced run, read from the trace
//! layer's exports: `TraceSink::metrics_json` for the per-phase breakdown
//! and the raw events for per-node compute and rebalancing.

use std::collections::BTreeMap;

use ppm_simnet::TraceSink;

#[derive(Debug, Default)]
pub struct SimSummary {
    /// Global phases of the job.
    pub global_phases: u64,
    /// Per-phase maximum over nodes, summed over phases, per category.
    pub compute_ms: f64,
    pub service_ms: f64,
    pub comm_ms: f64,
    pub barrier_ms: f64,
    /// Rebalance decisions (every node decides identically; counted on
    /// node 0) and the elements they moved, summed over nodes.
    pub rebalances: u64,
    pub moved_elems: u64,
    /// Simulated compute per node over the whole job.
    pub mean_node_compute_ms: f64,
    pub max_node_compute_ms: f64,
}

/// Sum of every integer value that follows `"key":` in `json`.
fn sum_field(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    json.match_indices(&pat)
        .map(|(at, _)| {
            let rest = &json[at + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end]
                .parse::<u64>()
                .expect("integer metric in metrics_json")
        })
        .sum()
}

const PS_PER_MS: f64 = 1e9;

pub fn summarize(sink: &TraceSink) -> SimSummary {
    let json = sink.metrics_json();
    let mut node_compute: BTreeMap<u32, u64> = BTreeMap::new();
    let mut s = SimSummary {
        global_phases: json.matches("\"kind\":\"global\"").count() as u64,
        compute_ms: sum_field(&json, "compute_ps_max") as f64 / PS_PER_MS,
        service_ms: sum_field(&json, "service_ps_max") as f64 / PS_PER_MS,
        comm_ms: sum_field(&json, "comm_ps_max") as f64 / PS_PER_MS,
        barrier_ms: sum_field(&json, "barrier_ps_max") as f64 / PS_PER_MS,
        ..SimSummary::default()
    };
    for e in sink.events() {
        match e.name {
            "global_phase" | "node_phase" => {
                *node_compute.entry(e.tid).or_default() += e.arg_u64("compute_ps").unwrap_or(0);
            }
            "rebalance" => {
                s.rebalances += u64::from(e.tid == 0);
                s.moved_elems += e.arg_u64("moved_elems_out").unwrap_or(0);
            }
            _ => {}
        }
    }
    if !node_compute.is_empty() {
        let total: u64 = node_compute.values().sum();
        s.mean_node_compute_ms = total as f64 / node_compute.len() as f64 / PS_PER_MS;
        s.max_node_compute_ms = *node_compute.values().max().unwrap_or(&0) as f64 / PS_PER_MS;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_every_occurrence() {
        let j = r#"{"phases":[{"compute_ps_max":12,"x":1},{"compute_ps_max":30}]}"#;
        assert_eq!(sum_field(j, "compute_ps_max"), 42);
        assert_eq!(sum_field(j, "absent"), 0);
    }
}
