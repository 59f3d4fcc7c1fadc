//! Human-readable reports over [`SimResults`] — the formatting used by the
//! examples and harness binaries.

use std::fmt;

use heterowire_wires::WireClass;

use crate::results::SimResults;

/// A displayable summary of one simulation run.
///
/// # Examples
///
/// ```
/// use heterowire_core::{report::Report, InterconnectModel, Processor, ProcessorConfig};
/// use heterowire_interconnect::Topology;
/// use heterowire_trace::{by_name, TraceGenerator};
///
/// let cfg = ProcessorConfig::for_model(InterconnectModel::VII, Topology::crossbar4());
/// let r = Processor::simulate(cfg, TraceGenerator::new(by_name("gzip").unwrap(), 1), 2_000, 200);
/// let text = Report::new("gzip", &r).to_string();
/// assert!(text.contains("IPC"));
/// ```
#[derive(Debug, Clone)]
pub struct Report<'a> {
    label: &'a str,
    results: &'a SimResults,
}

impl<'a> Report<'a> {
    /// Wraps `results` for display under `label`.
    pub fn new(label: &'a str, results: &'a SimResults) -> Self {
        Report { label, results }
    }
}

impl fmt::Display for Report<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.results;
        writeln!(f, "== {} ==", self.label)?;
        writeln!(
            f,
            "  {} instructions in {} cycles -> IPC {:.3}",
            r.instructions,
            r.cycles,
            r.ipc()
        )?;
        writeln!(
            f,
            "  network: {:.2} transfers/inst, {} queue-cycles, {:.0} dyn-energy units",
            r.transfers_per_inst(),
            r.net.queue_cycles,
            r.net.dynamic_energy
        )?;
        for (i, class) in WireClass::ALL.iter().enumerate() {
            if r.net.transfers[i] > 0 {
                writeln!(
                    f,
                    "    {:<9} {:>9} transfers ({:>4.1}%)",
                    class.to_string(),
                    r.net.transfers[i],
                    r.net.class_share(*class) * 100.0
                )?;
            }
        }
        writeln!(
            f,
            "  front-end: {:.1}% mispredicts, mean penalty {:.1} cycles",
            r.fetch.mispredict_rate() * 100.0,
            r.fetch.mean_mispredict_penalty()
        )?;
        writeln!(
            f,
            "  memory: {} L1 misses, {} L2 misses, {} TLB misses, {} bank conflicts",
            r.mem.l1_misses, r.mem.l2_misses, r.mem.tlb_misses, r.mem.bank_conflicts
        )?;
        writeln!(
            f,
            "  LSQ: {:.1}% false partial deps, {} forwards",
            r.lsq.false_dependence_rate() * 100.0,
            r.lsq.forwards
        )?;
        write!(
            f,
            "  narrow predictor: {:.1}% coverage, {:.1}% false-narrow",
            r.narrow_coverage * 100.0,
            r.narrow_false_rate * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InterconnectModel, ProcessorConfig};
    use crate::processor::Processor;
    use heterowire_interconnect::Topology;
    use heterowire_trace::{by_name, TraceGenerator};

    fn sample() -> SimResults {
        let cfg = ProcessorConfig::for_model(InterconnectModel::X, Topology::crossbar4());
        let trace = TraceGenerator::new(by_name("twolf").unwrap(), 2);
        Processor::simulate(cfg, trace, 2_000, 200)
    }

    #[test]
    fn report_contains_all_sections() {
        let r = sample();
        let text = Report::new("twolf", &r).to_string();
        for needle in ["IPC", "network", "front-end", "memory", "LSQ", "narrow"] {
            assert!(text.contains(needle), "missing {needle}: {text}");
        }
    }

    #[test]
    fn report_lists_used_planes_only() {
        let r = sample();
        let text = Report::new("twolf", &r).to_string();
        assert!(text.contains("B-Wires"));
        // The W plane is never deployed: no standalone "W-Wires" row
        // ("PW-Wires" contains the substring, so match the row form).
        assert!(!text.contains("    W-Wires"), "W plane is never deployed");
    }
}
