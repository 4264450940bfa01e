//! Span recorder for the traced replay.
//!
//! Every span feeds a per-layer accumulator (call count, total time, self
//! time), so counts and totals cover every call. Full span records (name,
//! start, end, parent, VM id) are kept only for a bounded sample of VMs —
//! every `stride`-th VM id — so memory stays bounded on million-VM runs.
//! Records stay in memory and are written out once, when the run ends.

use std::io::Write;
use std::time::{Duration, Instant};

/// The layer boundaries the replay loop times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `EventQueue::pop`.
    Pop,
    /// `EventQueue::push` (a departure).
    Push,
    /// `Scheduler::schedule` that admitted without the fallback.
    Intra,
    /// `Scheduler::schedule` that admitted through the SUPER_RACK fallback.
    Fallback,
    /// `Scheduler::schedule` that dropped the VM.
    Drop,
    /// `Scheduler::release`.
    Release,
    /// `EnergyModel::flow_total_energy_j` for both flows of an admit.
    Energy,
    /// Latency record plus the time-weighted utilization/bandwidth samples.
    Accounting,
    /// One dispatched event, pop included; its self time is loop glue.
    Event,
}

impl Layer {
    const ALL: [Layer; 9] = [
        Layer::Pop,
        Layer::Push,
        Layer::Intra,
        Layer::Fallback,
        Layer::Drop,
        Layer::Release,
        Layer::Energy,
        Layer::Accounting,
        Layer::Event,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Pop => "des.pop",
            Layer::Push => "des.push",
            Layer::Intra => "core.schedule.intra",
            Layer::Fallback => "core.schedule.fallback",
            Layer::Drop => "core.schedule.drop",
            Layer::Release => "core.release",
            Layer::Energy => "photonics.energy",
            Layer::Accounting => "sim.accounting",
            Layer::Event => "sim.event",
        }
    }
}

/// Count, total and self time of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub count: u64,
    pub total: Duration,
    pub self_time: Duration,
}

impl Acc {
    pub fn secs(&self) -> f64 {
        self.total.as_secs_f64()
    }

    /// Mean microseconds per call, 0 when the layer was never called.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.secs() * 1e6 / self.count as f64
        }
    }
}

struct SpanRecord {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    vm: Option<u32>,
    start_ns: u128,
    end_ns: u128,
}

pub struct Tracer {
    origin: Instant,
    layers: [Acc; 9],
    records: Vec<SpanRecord>,
    stride: u32,
    next_id: u64,
}

impl Tracer {
    /// A tracer whose span times count from now.
    pub fn start() -> Self {
        Tracer {
            origin: Instant::now(),
            layers: [Acc::default(); 9],
            records: Vec::new(),
            stride: 1,
            next_id: 0,
        }
    }

    /// Keep full per-VM records for about `sample` VMs out of `total_vms`.
    pub fn sample_vms(&mut self, total_vms: usize, sample: usize) {
        let stride = (total_vms / sample.max(1)).max(1);
        self.stride = u32::try_from(stride).unwrap_or(u32::MAX);
    }

    pub fn sampled(&self, vm: u32) -> bool {
        vm.is_multiple_of(self.stride)
    }

    pub fn new_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Account one layer call of `vm`; returns its duration so the caller
    /// can subtract it from the parent's self time.
    #[inline]
    pub fn span(
        &mut self,
        layer: Layer,
        vm: u32,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> Duration {
        let d = end - start;
        let acc = &mut self.layers[layer as usize];
        acc.count += 1;
        acc.total += d;
        acc.self_time += d;
        if self.sampled(vm) {
            let id = self.new_id();
            self.record(layer.name(), id, Some(parent), Some(vm), start, end);
        }
        d
    }

    /// Account one event span whose child spans took `children` of it.
    #[inline]
    pub fn event_span(
        &mut self,
        id: u64,
        vm: u32,
        parent: u64,
        start: Instant,
        end: Instant,
        children: Duration,
    ) {
        let d = end - start;
        let acc = &mut self.layers[Layer::Event as usize];
        acc.count += 1;
        acc.total += d;
        acc.self_time += d.saturating_sub(children);
        if self.sampled(vm) {
            self.record(Layer::Event.name(), id, Some(parent), Some(vm), start, end);
        }
    }

    /// A top-level span outside the per-VM loop (set-up calls, figures);
    /// always recorded. Returns its length in seconds.
    pub fn top(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) -> f64 {
        self.record(name, id, None, None, start, end);
        (end - start).as_secs_f64()
    }

    /// Run `f` inside a top-level span; returns its result and seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.new_id();
        let start = Instant::now();
        let out = f();
        let secs = self.top(name, id, start, Instant::now());
        (out, secs)
    }

    pub fn layer(&self, layer: Layer) -> Acc {
        self.layers[layer as usize]
    }

    fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<u64>,
        vm: Option<u32>,
        start: Instant,
        end: Instant,
    ) {
        self.records.push(SpanRecord {
            name,
            id,
            parent,
            vm,
            start_ns: (start - self.origin).as_nanos(),
            end_ns: (end - self.origin).as_nanos(),
        });
    }

    /// Write every kept span record, one JSON object per line, followed by
    /// one summary line per layer.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for r in &self.records {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"vm\":{},\"start_ns\":{},\"end_ns\":{}}}",
                r.name,
                r.id,
                opt(r.parent),
                opt(r.vm.map(u64::from)),
                r.start_ns,
                r.end_ns
            )?;
        }
        for layer in Layer::ALL {
            let acc = self.layer(layer);
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"count\":{},\"total_s\":{},\"self_s\":{}}}",
                layer.name(),
                acc.count,
                acc.secs(),
                acc.self_time.as_secs_f64()
            )?;
        }
        out.flush()
    }
}
