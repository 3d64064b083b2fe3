//! End-of-run JSON report: the metrics registry plus run-level facts the
//! caller knows (engine, workload, wall time, executor counters).

use crate::json::Obj;
use crate::metrics::MetricsRegistry;

/// Builder for the `--report` JSON document.
pub struct RunReport {
    engine: String,
    workload: String,
    wall_ns: u64,
    fired: u64,
    halted: bool,
    extra: Vec<(String, String)>,
}

impl RunReport {
    pub fn new(engine: &str, workload: &str) -> Self {
        RunReport {
            engine: engine.to_string(),
            workload: workload.to_string(),
            wall_ns: 0,
            fired: 0,
            halted: false,
            extra: Vec::new(),
        }
    }

    pub fn wall_ns(mut self, ns: u64) -> Self {
        self.wall_ns = ns;
        self
    }

    pub fn fired(mut self, fired: u64) -> Self {
        self.fired = fired;
        self
    }

    pub fn halted(mut self, halted: bool) -> Self {
        self.halted = halted;
        self
    }

    /// Attach a pre-rendered JSON value under `key`.
    pub fn section(mut self, key: &str, json: String) -> Self {
        self.extra.push((key.to_string(), json));
        self
    }

    /// Render, folding in everything the metrics registry aggregated.
    pub fn to_json(&self, metrics: &MetricsRegistry) -> String {
        let mut o = Obj::new()
            .str("engine", &self.engine)
            .str("workload", &self.workload)
            .u64("wall_ns", self.wall_ns)
            .u64("fired", self.fired)
            .bool("halted", self.halted)
            .raw("metrics", &metrics.to_json());
        for (k, v) in &self.extra {
            o = o.raw(k, v);
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_embeds_metrics_and_sections() {
        let m = MetricsRegistry::new();
        m.observe(&crate::Event::RuleFire {
            cycle: 0,
            rule: 0,
            rule_name: "R0".into(),
            rhs_ns: 50,
            inserts: 0,
            removes: 0,
        });
        let json = RunReport::new("cond", "paper-example-3")
            .wall_ns(1234)
            .fired(1)
            .section("concurrent", "{\"workers\":4}".to_string())
            .to_json(&m);
        assert!(json.starts_with("{\"engine\":\"cond\""), "{json}");
        assert!(json.contains("\"workload\":\"paper-example-3\""));
        assert!(json.contains("\"fires\":1"));
        assert!(json.contains("\"concurrent\":{\"workers\":4}"));
    }
}
