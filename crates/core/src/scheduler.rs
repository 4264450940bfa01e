//! The unified scheduler front-end dispatching to NULB/NALB/RISA/RISA-BF.

use crate::algorithm::{Algorithm, ScheduleOutcome, VmAssignment};
use crate::nulb::{nulb_schedule, NulbParams, Scratch};
use crate::risa::RisaState;
use crate::work::WorkCounters;
use risa_network::{FlowDemands, NetworkState};
use risa_topology::{Cluster, UnitDemand};
use serde::{Deserialize, Serialize};

/// A stateful scheduler instance. NULB/NALB are stateless per VM; RISA and
/// RISA-BF carry the round-robin and next-fit cursors across VMs, so one
/// `Scheduler` must live for the whole workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scheduler {
    algo: Algorithm,
    risa: RisaState,
    work: WorkCounters,
    /// Reusable buffers (NALB's within-rack ordering, RISA's fallback
    /// SUPER_RACK); scratch state, excluded from serialization.
    #[serde(skip)]
    scratch: Scratch,
}

impl Scheduler {
    /// Create a scheduler for `algo` sized to `cluster`.
    pub fn new(algo: Algorithm, cluster: &Cluster) -> Self {
        Scheduler {
            algo,
            risa: RisaState::new(cluster, algo == Algorithm::RisaBf),
            work: WorkCounters::new(),
            scratch: Scratch::default(),
        }
    }

    /// The algorithm this scheduler runs.
    pub fn algorithm(&self) -> Algorithm {
        self.algo
    }

    /// Deterministic operation counters accumulated since construction (or
    /// the last [`Scheduler::reset_work`]) — the machine-independent
    /// backing for the paper's Figure 11/12 execution-time comparison.
    pub fn work(&self) -> &WorkCounters {
        &self.work
    }

    /// Zero the work counters.
    pub fn reset_work(&mut self) {
        self.work = WorkCounters::new();
    }

    /// Clone for speculative execution: identical algorithm and cursor
    /// state, but zeroed work counters, so after a speculated call the
    /// clone's [`Scheduler::work`] *is* the work delta of that call — the
    /// committing executor adds it back with [`Scheduler::add_work`].
    pub fn speculative_clone(&self) -> Self {
        let mut clone = self.clone();
        clone.reset_work();
        clone
    }

    /// Adopt `donor`'s algorithm cursor state (RISA round-robin and
    /// next-fit cursors) without touching our work counters. Used by the
    /// speculative executor's fast-path commit: a validated speculated
    /// admit already knows the exact post-call cursors, so the real
    /// scheduler can skip the search and jump straight to them.
    pub fn adopt_cursors(&mut self, donor: &Scheduler) {
        debug_assert_eq!(self.algo, donor.algo, "cursor adoption across algorithms");
        self.risa = donor.risa.clone();
    }

    /// Add a work-counter delta measured on a [`Scheduler::speculative_clone`].
    pub fn add_work(&mut self, delta: WorkCounters) {
        self.work += delta;
    }

    /// The RISA round-robin cursor: the first pool rack the next
    /// [`Scheduler::schedule`] call will probe. Meaningful only for
    /// RISA/RISA-BF (NULB/NALB are stateless); exposed so the speculative
    /// executor can form the wrapping read interval `[cursor, chosen]`
    /// for conflict detection.
    pub fn rr_cursor(&self) -> u16 {
        self.risa.rr_cursor()
    }

    /// Schedule one VM with `demand` (in units). Bandwidth demands derive
    /// from the network config per Table 2. Mutates the cluster and network
    /// only on success.
    pub fn schedule(
        &mut self,
        cluster: &mut Cluster,
        net: &mut NetworkState,
        demand: &UnitDemand,
    ) -> ScheduleOutcome {
        let flows = FlowDemands::for_vm(net.config(), demand);
        self.schedule_with_flows(cluster, net, demand, &flows)
    }

    /// As [`Scheduler::schedule`] but with externally computed flow
    /// demands (ablation hook for non-Table-2 bandwidth models).
    pub fn schedule_with_flows(
        &mut self,
        cluster: &mut Cluster,
        net: &mut NetworkState,
        demand: &UnitDemand,
        flows: &FlowDemands,
    ) -> ScheduleOutcome {
        self.work.calls += 1;
        let result = match self.algo {
            Algorithm::Nulb => nulb_schedule(
                cluster,
                net,
                demand,
                flows,
                None,
                NulbParams::nulb(),
                &mut self.work,
                &mut self.scratch,
            ),
            Algorithm::Nalb => nulb_schedule(
                cluster,
                net,
                demand,
                flows,
                None,
                NulbParams::nalb(),
                &mut self.work,
                &mut self.scratch,
            ),
            Algorithm::Risa | Algorithm::RisaBf => self.risa.schedule(
                cluster,
                net,
                demand,
                flows,
                &mut self.work,
                &mut self.scratch,
            ),
        };
        match result {
            Ok(a) => ScheduleOutcome::Assigned(a),
            Err(reason) => ScheduleOutcome::Dropped(reason),
        }
    }

    /// Release an admitted VM's compute units and bandwidth (departure).
    pub fn release(cluster: &mut Cluster, net: &mut NetworkState, assignment: &VmAssignment) {
        net.release_vm(&assignment.network)
            .expect("releasing held flows cannot over-release");
        cluster
            .give_placement(&assignment.placement)
            .expect("releasing a held placement cannot fail");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risa_network::NetworkConfig;
    use risa_topology::{ResourceKind, TopologyConfig};

    fn setup(algo: Algorithm) -> (Cluster, NetworkState, Scheduler) {
        let c = Cluster::new(TopologyConfig::paper());
        let n = NetworkState::new(NetworkConfig::paper(), &c);
        let s = Scheduler::new(algo, &c);
        (c, n, s)
    }

    #[test]
    fn all_algorithms_admit_on_pristine_cluster() {
        for algo in Algorithm::ALL {
            let (mut c, mut n, mut s) = setup(algo);
            let d = UnitDemand::new(2, 4, 2);
            let out = s.schedule(&mut c, &mut n, &d);
            let a = out.assigned().unwrap_or_else(|| panic!("{algo} dropped"));
            assert!(a.intra_rack, "{algo} should be intra-rack when empty");
            Scheduler::release(&mut c, &mut n, a);
            assert_eq!(c.total_available(ResourceKind::Cpu), 4608);
            assert_eq!(n.intra_used_mbps(), 0);
            c.check_invariants().unwrap();
        }
    }

    #[test]
    fn schedule_release_cycle_is_leak_free() {
        let (mut c, mut n, mut s) = setup(Algorithm::RisaBf);
        let d = UnitDemand::new(8, 8, 2);
        let mut held = vec![];
        for _ in 0..100 {
            match s.schedule(&mut c, &mut n, &d) {
                ScheduleOutcome::Assigned(a) => held.push(a),
                ScheduleOutcome::Dropped(r) => panic!("unexpected drop: {r:?}"),
            }
        }
        for a in &held {
            Scheduler::release(&mut c, &mut n, a);
        }
        assert_eq!(c.total_available(ResourceKind::Cpu), 4608);
        assert_eq!(c.total_available(ResourceKind::Ram), 4608);
        assert_eq!(c.total_available(ResourceKind::Storage), 4608);
        assert_eq!(n.intra_used_mbps(), 0);
        assert_eq!(n.inter_used_mbps(), 0);
    }

    #[test]
    fn algorithm_accessor() {
        let (_c, _n, s) = setup(Algorithm::Nalb);
        assert_eq!(s.algorithm(), Algorithm::Nalb);
    }

    /// The speculative fast-path contract: running an admit on a
    /// speculative clone, then replaying it on the original via cursor
    /// adoption + work delta, leaves the original scheduler
    /// byte-identical to having run the admit directly.
    #[test]
    fn speculative_clone_commit_matches_direct_run() {
        let d = UnitDemand::new(8, 8, 2);
        for algo in [Algorithm::Risa, Algorithm::RisaBf] {
            let (mut c, mut n, mut s) = setup(algo);
            // Advance cursors off their initial state first.
            for _ in 0..5 {
                s.schedule(&mut c, &mut n, &d).assigned().expect("admit");
            }

            // Oracle: run the 6th admit directly on a full clone.
            let (mut oc, mut on, mut os) = (c.clone(), n.clone(), s.clone());
            os.schedule(&mut oc, &mut on, &d).assigned().expect("admit");

            // Speculate on clones, commit via adopt_cursors + add_work.
            let mut spec = s.speculative_clone();
            assert_eq!(spec.work().calls, 0, "clone starts with zero work");
            assert_eq!(spec.rr_cursor(), s.rr_cursor());
            let (mut sc, mut sn) = (c.clone(), n.clone());
            let a = spec
                .schedule(&mut sc, &mut sn, &d)
                .assigned()
                .expect("admit")
                .clone();
            c.take_placement(&a.placement).expect("replay placement");
            let flows = FlowDemands::for_vm(n.config(), &d);
            n.alloc_vm(
                &c,
                a.placement.grant(ResourceKind::Cpu).box_id,
                a.placement.grant(ResourceKind::Ram).box_id,
                a.placement.grant(ResourceKind::Storage).box_id,
                &flows,
                risa_network::LinkPolicy::FirstFit,
            )
            .expect("replay flows");
            s.adopt_cursors(&spec);
            s.add_work(*spec.work());

            let canon = |s: &Scheduler| serde_json::to_string(s).expect("serialize");
            assert_eq!(canon(&s), canon(&os), "{algo}: scheduler state diverged");
            assert_eq!(s.rr_cursor(), os.rr_cursor());
        }
    }

    /// Saturating the whole cluster eventually drops for every algorithm,
    /// and the drop leaves state consistent.
    #[test]
    fn saturation_drops_cleanly() {
        let mut admitted_by_algo = std::collections::HashMap::new();
        for algo in Algorithm::ALL {
            // Narrow 2-link trunks so the network saturates before compute.
            let c = Cluster::new(TopologyConfig::paper());
            let mut netcfg = NetworkConfig::paper();
            netcfg.box_uplink_width = 2;
            netcfg.rack_uplink_width = 4;
            let mut n = NetworkState::new(netcfg, &c);
            let mut s = Scheduler::new(algo, &c);
            let mut c = c;
            // 32 units each: CPU-RAM flow = 160 Gb/s, within one link but
            // heavy enough that trunks saturate before compute does.
            let d = UnitDemand::new(32, 32, 32);
            let mut admitted = 0;
            while let ScheduleOutcome::Assigned(_) = s.schedule(&mut c, &mut n, &d) {
                admitted += 1;
                assert!(admitted < 10_000, "{algo} never saturated");
            }
            // Compute bound: 4608 / 32 = 144 VMs.
            assert!(admitted <= 144, "{algo} overcommitted: {admitted}");
            assert!(admitted >= 1, "{algo} admitted nothing");
            c.check_invariants().unwrap();
            n.check_invariants().unwrap();
            admitted_by_algo.insert(algo, admitted);
        }
        // The paper's motivation in miniature: NULB's network-oblivious
        // first-fit keeps hammering the saturated first box and drops
        // early; RISA's round-robin spreads flows over every rack trunk.
        assert!(
            admitted_by_algo[&Algorithm::Risa] > admitted_by_algo[&Algorithm::Nulb],
            "RISA ({}) should outlast NULB ({}) under trunk pressure",
            admitted_by_algo[&Algorithm::Risa],
            admitted_by_algo[&Algorithm::Nulb]
        );
    }
}
