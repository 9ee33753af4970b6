//! Pipeline tracing: per-instruction issue/start/completion records.
//!
//! A trace makes the timing model inspectable — the pipeline view shows
//! exactly where the paper's two kernels spend their cycles (the
//! vector-to-scalar round trips, the per-nonzero load latency the
//! `vindexmac` kernel eliminates, the decoupling queue backing up).

use crate::config::SimConfig;
use crate::engine::Observer;
use crate::exec::ExecEvent;
use crate::timing::{InstrTiming, TimingModel};
use indexmac_isa::{InstrClass, Instruction};
use std::fmt;

/// One traced dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    /// Dynamic sequence number (0-based).
    pub seq: u64,
    /// Static program slot.
    pub pc: usize,
    /// The instruction.
    pub instr: Instruction,
    /// Timing record from the model.
    pub timing: InstrTiming,
}

impl TraceEntry {
    /// Cycles from issue to completion.
    pub fn latency(&self) -> u64 {
        self.timing.completion - self.timing.issue_at
    }

    /// Cycles spent waiting between issue and execution start (queueing,
    /// operand waits, structural hazards).
    pub fn wait(&self) -> u64 {
        self.timing.start - self.timing.issue_at
    }
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>6} @{:<5} I{:<8} S{:<8} C{:<8} {}",
            self.seq,
            self.pc,
            self.timing.issue_at,
            self.timing.start,
            self.timing.completion,
            self.instr
        )
    }
}

/// A bounded recording of the first `capacity` dynamic instructions.
#[derive(Debug, Clone)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    capacity: usize,
    /// Total dynamic instructions observed (may exceed `capacity`).
    observed: u64,
}

impl Trace {
    /// Creates a trace that keeps at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity.min(4096)),
            capacity,
            observed: 0,
        }
    }

    /// Records one instruction (dropped silently once full).
    pub fn record(&mut self, pc: usize, instr: Instruction, timing: InstrTiming) {
        if self.entries.len() < self.capacity {
            self.entries.push(TraceEntry {
                seq: self.observed,
                pc,
                instr,
                timing,
            });
        }
        self.observed += 1;
    }

    /// The recorded entries.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Total dynamic instructions observed (recorded or not).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Whether the recording hit its capacity.
    pub fn truncated(&self) -> bool {
        self.observed > self.entries.len() as u64
    }

    /// The entry with the largest issue-to-completion latency — usually
    /// the bottleneck worth staring at.
    pub fn slowest(&self) -> Option<&TraceEntry> {
        self.entries.iter().max_by_key(|e| e.latency())
    }

    /// Mean latency of recorded instructions in `class`.
    pub fn mean_latency(&self, class: InstrClass) -> Option<f64> {
        let of_class: Vec<u64> = self
            .entries
            .iter()
            .filter(|e| e.instr.class() == class)
            .map(TraceEntry::latency)
            .collect();
        if of_class.is_empty() {
            None
        } else {
            Some(of_class.iter().sum::<u64>() as f64 / of_class.len() as f64)
        }
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  seq  pc    issue    start    complete instruction")?;
        for e in &self.entries {
            writeln!(f, "{e}")?;
        }
        if self.truncated() {
            writeln!(
                f,
                "... ({} more instructions not recorded)",
                self.observed - self.entries.len() as u64
            )?;
        }
        Ok(())
    }
}

/// The tracing [`Observer`]: timing model plus a bounded pipeline
/// trace, in one pass — what `Simulator::run_traced` monomorphizes the
/// engine loop over.
#[derive(Debug, Clone)]
pub struct TraceObserver {
    timing: TimingModel,
    trace: Trace,
}

impl TraceObserver {
    /// A fresh observer recording at most `trace_cap` instructions,
    /// timed under the issue policy `cfg.timing` selects.
    pub fn new(cfg: SimConfig, trace_cap: usize) -> Self {
        Self {
            timing: TimingModel::new(cfg),
            trace: Trace::new(trace_cap),
        }
    }

    /// The accumulated timing model.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Consumes the observer, yielding the model and the trace.
    pub fn into_parts(self) -> (TimingModel, Trace) {
        (self.timing, self.trace)
    }
}

impl Observer for TraceObserver {
    #[inline]
    fn observe(&mut self, ev: &ExecEvent) {
        let t = self.timing.account(ev);
        self.trace.record(ev.pc, ev.instr, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::InstrTiming;
    use indexmac_isa::XReg;

    fn entry(seq: u64, issue: u64, start: u64, complete: u64) -> (usize, Instruction, InstrTiming) {
        let _ = seq;
        (
            seq as usize,
            Instruction::Addi {
                rd: XReg::T0,
                rs1: XReg::T0,
                imm: 1,
            },
            InstrTiming {
                issue_at: issue,
                start,
                completion: complete,
            },
        )
    }

    #[test]
    fn capacity_enforced() {
        let mut t = Trace::new(2);
        for i in 0..5 {
            let (pc, instr, timing) = entry(i, i, i, i + 1);
            t.record(pc, instr, timing);
        }
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.observed(), 5);
        assert!(t.truncated());
    }

    #[test]
    fn latency_and_wait() {
        let mut t = Trace::new(8);
        let (pc, instr, timing) = entry(0, 10, 14, 30);
        t.record(pc, instr, timing);
        let e = &t.entries()[0];
        assert_eq!(e.latency(), 20);
        assert_eq!(e.wait(), 4);
        assert_eq!(t.slowest().unwrap().seq, 0);
    }

    #[test]
    fn mean_latency_by_class() {
        let mut t = Trace::new(8);
        for (i, lat) in [(0, 3), (1, 5)] {
            let (pc, instr, timing) = entry(i, 0, 0, lat);
            t.record(pc, instr, timing);
        }
        assert_eq!(t.mean_latency(InstrClass::ScalarAlu), Some(4.0));
        assert_eq!(t.mean_latency(InstrClass::VLoad), None);
    }

    #[test]
    fn display_lists_entries() {
        let mut t = Trace::new(1);
        let (pc, instr, timing) = entry(0, 1, 2, 3);
        t.record(pc, instr, timing);
        t.record(pc, instr, timing);
        let s = t.to_string();
        assert!(s.contains("addi"));
        assert!(s.contains("more instructions not recorded"));
    }
}
