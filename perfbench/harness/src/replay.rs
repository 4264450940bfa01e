//! The traced replay: the sequential arrival/departure loop of
//! `risa_sim::DdcWorld`, rebuilt from the layers' public functions only,
//! with a span around every layer call.
//!
//! The loop must reproduce the untraced run's report exactly (admits,
//! drops, inter-rack, fallback, optical energy, mean latency and
//! `WorkCounters`), so it follows the world's order of operations: the same
//! queue lanes and sequence numbers, the same accumulation order for the
//! energy sum, the same sampling points for the time-weighted series.

use crate::tracer::{Layer, Tracer};
use risa_des::{EventQueue, SimDuration, SimTime};
use risa_metrics::{OnlineStats, TimeWeighted};
use risa_network::NetworkState;
use risa_photonics::{EnergyModel, SwitchPath};
use risa_sched::{Algorithm, ScheduleOutcome, Scheduler, WorkCounters};
use risa_sim::SimConfig;
use risa_topology::{Cluster, ResourceKind, ALL_RESOURCES};
use risa_workload::VmRequest;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrive(u32),
    Depart(u32),
}

/// What the replay observed; the fields named in the report check plus the
/// traffic profile.
#[derive(Debug, Default)]
pub struct Outcome {
    pub total: u32,
    pub intra_admits: u32,
    pub fallback_admits: u32,
    pub fallback_attempts: u32,
    pub drops: u32,
    pub inter_rack: u32,
    pub optical_energy_j: f64,
    pub mean_latency_ns: f64,
    pub work: WorkCounters,
    pub events: u64,
    pub peak_fel: usize,
    pub mean_resident: f64,
    pub peak_resident: u32,
    pub loop_s: f64,
}

impl Outcome {
    pub fn admitted(&self) -> u32 {
        self.intra_admits + self.fallback_admits
    }
}

struct State {
    cfg: SimConfig,
    cluster: Cluster,
    net: NetworkState,
    energy: EnergyModel,
    util: [TimeWeighted; 3],
    intra_bw: TimeWeighted,
    inter_bw: TimeWeighted,
    resident_tw: TimeWeighted,
    latency: OnlineStats,
}

impl State {
    fn flow_energy(&self, inter: bool, mbps: u64, lifetime_s: f64) -> f64 {
        let n = &self.cfg.network;
        let path = if inter {
            SwitchPath::inter_rack(
                n.box_switch_ports,
                n.rack_switch_ports,
                n.inter_rack_switch_ports,
            )
        } else {
            SwitchPath::intra_rack(n.box_switch_ports, n.rack_switch_ports)
        };
        self.energy.flow_total_energy_j(&path, mbps, lifetime_s)
    }

    fn sample(&mut self, t: f64, resident: u32) {
        for kind in ALL_RESOURCES {
            let used = self.cluster.total_capacity(kind) - self.cluster.total_available(kind);
            self.util[kind.index()].set(t, used as f64);
        }
        self.intra_bw.set(t, self.net.intra_used_mbps() as f64);
        self.inter_bw.set(t, self.net.inter_used_mbps() as f64);
        self.resident_tw.set(t, f64::from(resident));
    }
}

/// Replay `vms` (index = VM id) under RISA on `cfg`, recording spans into
/// `tr` under the parent span `root`.
pub fn replay(vms: &[VmRequest], cfg: SimConfig, tr: &mut Tracer, root: u64) -> Outcome {
    let cluster = Cluster::new(cfg.topology);
    let net = NetworkState::new(cfg.network, &cluster);
    let mut sched = Scheduler::new(Algorithm::Risa, &cluster);
    let num_racks = u64::from(cluster.num_racks());
    let zero = || TimeWeighted::new(0.0, 0.0);
    let mut st = State {
        cfg,
        cluster,
        net,
        energy: EnergyModel::new(cfg.photonics),
        util: [zero(), zero(), zero()],
        intra_bw: zero(),
        inter_bw: zero(),
        resident_tw: zero(),
        latency: OnlineStats::new(),
    };
    let mut slots: Vec<Option<risa_sched::VmAssignment>> = vec![None; vms.len()];
    let mut q: EventQueue<Ev> = EventQueue::new();
    q.preload_sorted(
        vms.iter()
            .map(|vm| (SimTime::from_units(vm.arrival), Ev::Arrive(vm.id.0)))
            .collect(),
    );

    let mut out = Outcome {
        total: u32::try_from(vms.len()).expect("trace fits u32 ids"),
        ..Outcome::default()
    };
    let mut resident = 0u32;
    let mut end_time = 0.0f64;
    let loop_start = Instant::now();
    loop {
        let t0 = Instant::now();
        let Some(entry) = q.pop() else { break };
        let t1 = Instant::now();
        let ev_id = tr.new_id();
        let (Ev::Arrive(idx) | Ev::Depart(idx)) = entry.event;
        let mut children = tr.span(Layer::Pop, idx, ev_id, t0, t1);
        out.events += 1;
        let now = entry.at.as_units();
        end_time = end_time.max(now);
        match entry.event {
            Ev::Arrive(idx) => {
                let vm = &vms[idx as usize];
                let demand = vm.demand(&st.cfg.topology);
                let racks_before = sched.work().racks_scanned;
                let s0 = Instant::now();
                let outcome = sched.schedule(&mut st.cluster, &mut st.net, &demand);
                let s1 = Instant::now();
                // RISA charges one rack scan per rack for the pool and a
                // second one when it builds the SUPER_RACK, so a larger
                // delta means the fallback ran.
                if sched.work().racks_scanned - racks_before > num_racks {
                    out.fallback_attempts += 1;
                }
                match outcome {
                    ScheduleOutcome::Assigned(a) => {
                        let layer = if a.used_fallback {
                            out.fallback_admits += 1;
                            Layer::Fallback
                        } else {
                            out.intra_admits += 1;
                            Layer::Intra
                        };
                        children += tr.span(layer, idx, ev_id, s0, s1);
                        if !a.intra_rack {
                            out.inter_rack += 1;
                        }
                        let e0 = Instant::now();
                        let life_s = vm.lifetime;
                        let cpu_ram = st.flow_energy(
                            a.network.cpu_ram.inter_rack,
                            a.network.cpu_ram.mbps,
                            life_s,
                        );
                        let ram_sto = st.flow_energy(
                            a.network.ram_sto.inter_rack,
                            a.network.ram_sto.mbps,
                            life_s,
                        );
                        let e1 = Instant::now();
                        children += tr.span(Layer::Energy, idx, ev_id, e0, e1);
                        out.optical_energy_j += cpu_ram;
                        out.optical_energy_j += ram_sto;

                        let a0 = Instant::now();
                        let cpu_rack = st
                            .cluster
                            .rack_of(a.placement.grant(ResourceKind::Cpu).box_id);
                        let ram_rack = st
                            .cluster
                            .rack_of(a.placement.grant(ResourceKind::Ram).box_id);
                        let lat = if cpu_rack == ram_rack {
                            st.cfg.latency.intra_rack_ns
                        } else {
                            st.cfg.latency.inter_rack_ns
                        };
                        st.latency.record(lat);
                        resident += 1;
                        out.peak_resident = out.peak_resident.max(resident);
                        st.sample(now, resident);
                        let a1 = Instant::now();
                        children += tr.span(Layer::Accounting, idx, ev_id, a0, a1);

                        slots[idx as usize] = Some(a);
                        let p0 = Instant::now();
                        q.push(
                            entry.at + SimDuration::from_units(vm.lifetime),
                            Ev::Depart(idx),
                        );
                        let p1 = Instant::now();
                        children += tr.span(Layer::Push, idx, ev_id, p0, p1);
                    }
                    ScheduleOutcome::Dropped(_) => {
                        out.drops += 1;
                        children += tr.span(Layer::Drop, idx, ev_id, s0, s1);
                        let a0 = Instant::now();
                        st.sample(now, resident);
                        let a1 = Instant::now();
                        children += tr.span(Layer::Accounting, idx, ev_id, a0, a1);
                    }
                }
            }
            Ev::Depart(idx) => {
                let a = slots[idx as usize]
                    .take()
                    .expect("departure of a VM that was never admitted");
                let r0 = Instant::now();
                Scheduler::release(&mut st.cluster, &mut st.net, &a);
                let r1 = Instant::now();
                children += tr.span(Layer::Release, idx, ev_id, r0, r1);
                resident -= 1;
                let a0 = Instant::now();
                st.sample(now, resident);
                let a1 = Instant::now();
                children += tr.span(Layer::Accounting, idx, ev_id, a0, a1);
            }
        }
        tr.event_span(ev_id, idx, root, t0, Instant::now(), children);
    }
    out.loop_s = loop_start.elapsed().as_secs_f64();
    out.mean_latency_ns = st.latency.mean();
    out.work = *sched.work();
    out.peak_fel = q.peak_fel_len();
    out.mean_resident = if end_time > 0.0 {
        st.resident_tw.mean_to(end_time)
    } else {
        0.0
    };
    debug_assert_eq!(resident, 0);
    out
}
