//! Rendering: the human-readable table and the one-line JSON result.

use crate::measure::Metrics;
use crate::workloads::Outcome;
use std::fmt::Write as _;

/// End-to-end metrics the run itself measures, in `BENCHMARK.json`
/// order. `peak_rss_mb` comes from `run.py`, which reaps the process,
/// except on `warpd-mix` (see `workloads::RSS_REQUESTS`).
pub const END_TO_END: [&str; 7] = [
    "op_ms.p50",
    "op_ms.p90",
    "ops_per_s",
    "cpu_ms_per_op",
    "setup_s",
    "code_words",
    "gen_cycles",
];

/// Per-layer metrics of a traced run, in `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 49] = [
    "lang.parse_ms",
    "lang.sema_ms",
    "lang.tokens",
    "link.ms",
    "ir.phase2_ms",
    "ir.insts",
    "codegen.select_ms",
    "codegen.regalloc_ms",
    "codegen.emit_ms",
    "codegen.ii_tried",
    "codegen.ii_yield",
    "codegen.pipelined_loops",
    "codegen.total_ii",
    "codegen.spills",
    "layers.unattributed_ms",
    "threads.phase1_ms",
    "threads.compile_ms",
    "threads.link_ms",
    "threads.busy_ratio",
    "threads.unattributed_ms",
    "threads.speedup",
    "farm.phase1_ms",
    "farm.compile_ms",
    "farm.link_ms",
    "farm.unattributed_ms",
    "farm.workers_spawned",
    "farm.hash_shipped",
    "farm.dispatch_overhead_ms",
    "farm.cpu_children_ms",
    "service.warm.client_ms.p50",
    "service.warm.queue_ms.p50",
    "service.warm.compile_ms.p50",
    "service.warm.gap_ms.p50",
    "service.edit.client_ms.p50",
    "service.edit.queue_ms.p50",
    "service.edit.compile_ms.p50",
    "service.edit.gap_ms.p50",
    "service.cold.client_ms.p50",
    "service.cold.queue_ms.p50",
    "service.cold.compile_ms.p50",
    "service.cold.gap_ms.p50",
    "service.overloaded",
    "cache.lookups",
    "cache.hit_ratio",
    "cache.stores",
    "wire.request_frame_ms",
    "wire.reply_frame_ms",
    "target.encode_ms",
    "trace.overhead_ratio",
];

/// One line per metric: name, value, unit and sample count.
pub fn table(metrics: &Metrics) -> String {
    let mut s = String::new();
    for m in &metrics.0 {
        let _ = writeln!(
            s,
            "  {:<30} {:>14.4} {:<7} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    s
}

/// JSON number text; non-finite values (never expected) become null.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics
/// named in `names` (a missing or non-finite metric makes the run
/// incorrect).
pub fn result_json(out: &Outcome, names: &[&str]) -> String {
    let mut correct = out.correct && out.failed == 0;
    let mut fields = Vec::new();
    for name in names {
        match out.metrics.0.iter().find(|m| m.name == *name) {
            Some(m) if m.value.is_finite() => fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )),
            _ => correct = false,
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut out = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        out.metrics.push("op_ms.p50", 1.25, "ms", 3);
        let line = result_json(&out, &["op_ms.p50"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_ms.p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(result_json(&out, &["missing"]).starts_with("{\"correct\": false"));
    }
}
