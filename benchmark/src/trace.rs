//! Harness-side spans: one around every call the harness makes into a
//! layer, on both clocks, with the op that caused it as parent.
//!
//! The recorder exists in both builds so workload code reads the same;
//! without the `trace` feature every method is an inlined pass-through
//! and the struct is empty, so the untraced build times nothing.

use simx86::Cpu;

/// Layers are crate names; `Bench` is the harness's own user-mode work
/// (request compute) and the op spans themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Bench,
    Simx86,
    Nimbus,
    Mercury,
}

#[cfg(feature = "trace")]
impl Layer {
    const COUNT: usize = 4;

    fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Simx86 => "simx86",
            Layer::Nimbus => "nimbus",
            Layer::Mercury => "mercury",
        }
    }
}

/// Calls, simulated cycles and host nanoseconds spent under one layer.
#[cfg(feature = "trace")]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub calls: u64,
    pub cycles: u64,
    pub host_ns: u64,
}

#[cfg(not(feature = "trace"))]
pub use disabled::Recorder;
#[cfg(feature = "trace")]
pub use enabled::Recorder;

#[cfg(not(feature = "trace"))]
mod disabled {
    use super::*;

    #[derive(Debug)]
    pub struct Recorder;

    impl Recorder {
        pub fn new() -> Recorder {
            Recorder
        }

        #[inline(always)]
        pub fn call<R>(
            &mut self,
            _layer: Layer,
            _name: &'static str,
            _cpu: &Cpu,
            f: impl FnOnce() -> R,
        ) -> R {
            f()
        }

        #[inline(always)]
        pub fn begin_op(&mut self, _op: u64, _due_cycles: u64, _cpu: &Cpu) {}

        #[inline(always)]
        pub fn end_op(&mut self, _name: &'static str, _cpu: &Cpu) {}
    }
}

#[cfg(feature = "trace")]
mod enabled {
    use super::*;
    use crate::json::Json;
    use std::time::Instant;

    /// Raw spans are kept for ops with an id below this.
    const RAW_OPS: u64 = 1_000;

    #[derive(Debug, Clone, Copy)]
    struct Span {
        name: &'static str,
        layer: Layer,
        /// `true` for an op's own span, `false` for a call.
        is_op: bool,
        /// The op this span is, or ran under; `None` for work between
        /// ops (idle advance, a switch the serving loop takes between
        /// requests).
        op: Option<u64>,
        start_cycles: u64,
        end_cycles: u64,
        start_ns: u64,
        end_ns: u64,
    }

    #[derive(Debug, Clone, Copy)]
    struct OpenOp {
        id: u64,
        due_cycles: u64,
        start_cycles: u64,
        start_ns: u64,
    }

    #[derive(Debug)]
    pub struct Recorder {
        epoch: Instant,
        spans: Vec<Span>,
        op: Option<OpenOp>,
        totals: [LayerTotals; Layer::COUNT],
        /// Cycles from due time to completion, summed over ops.
        pub sojourn_cycles: u64,
        /// Cycles from due time to service start, summed over ops.
        pub queue_cycles: u64,
        /// Cycles of child spans that ran inside an op.
        pub child_cycles: u64,
        pub ops: u64,
    }

    impl Recorder {
        pub fn new() -> Recorder {
            Recorder {
                epoch: Instant::now(),
                spans: Vec::new(),
                op: None,
                totals: Default::default(),
                sojourn_cycles: 0,
                queue_cycles: 0,
                child_cycles: 0,
                ops: 0,
            }
        }

        fn now_ns(&self) -> u64 {
            self.epoch.elapsed().as_nanos() as u64
        }

        pub fn call<R>(
            &mut self,
            layer: Layer,
            name: &'static str,
            cpu: &Cpu,
            f: impl FnOnce() -> R,
        ) -> R {
            let (start_cycles, start_ns) = (cpu.cycles(), self.now_ns());
            let r = f();
            let (end_cycles, end_ns) = (cpu.cycles(), self.now_ns());
            let t = &mut self.totals[layer as usize];
            t.calls += 1;
            t.cycles += end_cycles - start_cycles;
            t.host_ns += end_ns - start_ns;
            let parent = self.op.map(|op| op.id);
            if parent.is_some() {
                self.child_cycles += end_cycles - start_cycles;
            }
            if parent.map_or(self.ops < RAW_OPS, |id| id < RAW_OPS) {
                self.spans.push(Span {
                    name,
                    layer,
                    is_op: false,
                    op: parent,
                    start_cycles,
                    end_cycles,
                    start_ns,
                    end_ns,
                });
            }
            r
        }

        /// Service of op `op` starts now; it was due at `due_cycles`.
        pub fn begin_op(&mut self, op: u64, due_cycles: u64, cpu: &Cpu) {
            debug_assert!(self.op.is_none(), "ops do not nest");
            self.op = Some(OpenOp {
                id: op,
                due_cycles,
                start_cycles: cpu.cycles(),
                start_ns: self.now_ns(),
            });
        }

        pub fn end_op(&mut self, name: &'static str, cpu: &Cpu) {
            let op = self.op.take().expect("end_op without begin_op");
            let end_cycles = cpu.cycles();
            self.ops += 1;
            self.sojourn_cycles += end_cycles - op.due_cycles;
            self.queue_cycles += op.start_cycles - op.due_cycles;
            if op.id < RAW_OPS {
                // The op span runs from its due time; its host start
                // is when service began (there is no host-side queue).
                self.spans.push(Span {
                    name,
                    layer: Layer::Bench,
                    is_op: true,
                    op: Some(op.id),
                    start_cycles: op.due_cycles,
                    end_cycles,
                    start_ns: op.start_ns,
                    end_ns: self.now_ns(),
                });
            }
        }

        pub fn totals(&self, layer: Layer) -> LayerTotals {
            self.totals[layer as usize]
        }

        /// The retained raw spans, in completion order.
        pub fn raw_spans_json(&self) -> Json {
            Json::Arr(
                self.spans
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("name", Json::str(s.name)),
                            ("layer", Json::str(s.layer.name())),
                            ("kind", Json::str(if s.is_op { "op" } else { "call" })),
                            ("op", s.op.map_or(Json::Null, Json::Int)),
                            ("start_cycles", Json::Int(s.start_cycles)),
                            ("end_cycles", Json::Int(s.end_cycles)),
                            ("start_host_ns", Json::Int(s.start_ns)),
                            ("end_host_ns", Json::Int(s.end_ns)),
                        ])
                    })
                    .collect(),
            )
        }
    }
}
