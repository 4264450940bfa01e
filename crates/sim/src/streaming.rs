//! Streaming arrival pipeline: bounded-memory runs that generate the
//! trace shard-by-shard *while* the engine simulates, instead of
//! materializing every VM up front.
//!
//! Two cursors walk the same [`ShardSource`] independently:
//!
//! * [`StreamingArrivals`] (this module) feeds the event queue's static
//!   arrival lane through [`risa_des::ArrivalSource`]. It needs only the
//!   *arrival times*, so it uses the cheaper
//!   [`ShardSource::shard_arrivals`] pass, double-buffered: while the
//!   queue drains shard *k*'s times, shard *k+1*'s pass runs on the
//!   resident `rayon` pool. For a generator that pass re-derives one RNG
//!   stream, but for a CSV trace it re-reads the shard from disk, which
//!   would otherwise stall the event loop at every shard boundary. Peak
//!   buffered times ≤ 2 shards of `f64`.
//! * [`risa_workload::StreamingShards`] (owned by the world) yields the
//!   full [`risa_workload::VmRequest`]s in the same index order, double-
//!   buffered the same way. Peak buffered VMs ≤ 2 shards.
//!
//! Prefetch only moves *where* a shard's pass runs, never what it
//! returns; at pool width 1 the task runs inline and both cursors are
//! exactly sequential.
//!
//! The cursors never coordinate, yet always agree: arrivals are delivered
//! strictly in VM-index order (the stitched trace is sorted and the queue
//! assigns consecutive sequence numbers), so the world's cursor is always
//! exactly one VM behind the queue's. Both rebase shard-local times with
//! the identical running `offset += total` accumulation the materialized
//! prefix sum performs — the same `f64` additions in the same order —
//! which is why a streaming run is *byte-identical* to a materialized one
//! (pinned by `tests/hot_path_differential.rs`).

use crate::world::SimEvent;
use rayon::Task;
use risa_des::{ArrivalSource, SimTime};
use risa_workload::ShardSource;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// How the simulation obtains its arrival schedule (builder
/// [`crate::SimulationBuilder::arrivals`], `risa-cli run --arrivals`, or
/// the `RISA_ARRIVALS` environment variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrivalMode {
    /// Generate the whole trace before the run (the oracle path).
    Materialized,
    /// Feed arrivals shard-by-shard during the run: peak memory is
    /// O(resident VMs + 2 shards) instead of O(trace length). Every
    /// [`crate::WorkloadSpec`] streams — generators regenerate shards,
    /// pre-built traces are served in shard-sized slices, and CSV trace
    /// files are read chunk-by-chunk from disk.
    Streaming,
}

impl ArrivalMode {
    /// Every mode, for sweeps and differential tests.
    pub const ALL: [ArrivalMode; 2] = [ArrivalMode::Materialized, ArrivalMode::Streaming];

    /// Mode selected by the `RISA_ARRIVALS` environment variable
    /// (`materialized` | `streaming`), defaulting to
    /// [`ArrivalMode::Materialized`]. Panics on an unrecognized value
    /// rather than silently running the wrong pipeline.
    pub fn from_env() -> ArrivalMode {
        // risa-lint: allow(env_read) — selects the arrival pipeline; differential tests prove the choice never changes a report byte
        match std::env::var("RISA_ARRIVALS") {
            Err(_) => ArrivalMode::Materialized,
            Ok(v) => v.parse().unwrap_or_else(|e| panic!("RISA_ARRIVALS: {e}")),
        }
    }
}

impl FromStr for ArrivalMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "materialized" => Ok(ArrivalMode::Materialized),
            "streaming" => Ok(ArrivalMode::Streaming),
            other => Err(format!(
                "unknown arrival mode '{other}' (materialized|streaming)"
            )),
        }
    }
}

impl fmt::Display for ArrivalMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArrivalMode::Materialized => "materialized",
            ArrivalMode::Streaming => "streaming",
        })
    }
}

/// Lazy arrival schedule for the event queue's static lane: yields
/// `(arrival time, SimEvent::Arrival(idx))` in VM-index order, holding
/// the current shard of arrival *times* plus the next one in flight (see
/// the [module docs](self)).
pub(crate) struct StreamingArrivals {
    source: Arc<dyn ShardSource>,
    /// Shard-local arrival times of the shard currently being drained.
    times: Vec<f64>,
    /// Cursor into `times`.
    pos: usize,
    /// Absolute time offset of the shard in `times`.
    shard_offset: f64,
    /// Running prefix sum: absolute offset of `next_shard`.
    offset: f64,
    /// The shard the outstanding `prefetch` (or the next swap) loads.
    next_shard: u32,
    prefetch: Option<Task<(Vec<f64>, f64)>>,
    /// Global index of the next VM arrival to yield.
    next_idx: u32,
    total: u32,
}

impl StreamingArrivals {
    /// Start at VM 0 and kick off shard 0's arrival pass.
    pub(crate) fn new(source: Arc<dyn ShardSource>) -> Self {
        let total = source.total_vms();
        let prefetch = (source.num_shards() > 0).then(|| Self::launch(&source, 0));
        StreamingArrivals {
            source,
            times: Vec::new(),
            pos: 0,
            shard_offset: 0.0,
            offset: 0.0,
            next_shard: 0,
            prefetch,
            next_idx: 0,
            total,
        }
    }

    fn launch(source: &Arc<dyn ShardSource>, shard: u32) -> Task<(Vec<f64>, f64)> {
        let src = Arc::clone(source);
        rayon::spawn_task(move || src.shard_arrivals(shard))
    }

    /// Make `times[pos]` valid, swapping in the prefetched shard (and
    /// prefetching the one after) if the current one is drained. Returns
    /// `false` at end of trace.
    fn ensure(&mut self) -> bool {
        while self.pos == self.times.len() {
            if self.next_shard >= self.source.num_shards() {
                return false;
            }
            // Invariant: `prefetch`, when present, holds `next_shard`.
            let task = self
                .prefetch
                .take()
                .unwrap_or_else(|| Self::launch(&self.source, self.next_shard));
            let (times, total) = task.wait();
            debug_assert_eq!(times.len(), self.source.shard_range(self.next_shard).len());
            // The same sequential accumulation as the materialized
            // prefix sum — bit-equal offsets, hence bit-equal times.
            self.shard_offset = self.offset;
            self.offset += total;
            self.times = times;
            self.pos = 0;
            self.next_shard += 1;
            if self.next_shard < self.source.num_shards() {
                self.prefetch = Some(Self::launch(&self.source, self.next_shard));
            }
        }
        true
    }
}

impl ArrivalSource<SimEvent> for StreamingArrivals {
    fn peek_time(&mut self) -> Option<SimTime> {
        self.ensure()
            .then(|| SimTime::from_units(self.shard_offset + self.times[self.pos]))
    }

    fn next(&mut self) -> Option<(SimTime, SimEvent)> {
        if !self.ensure() {
            return None;
        }
        let at = SimTime::from_units(self.shard_offset + self.times[self.pos]);
        let event = SimEvent::Arrival(self.next_idx);
        self.pos += 1;
        self.next_idx += 1;
        Some((at, event))
    }

    fn remaining(&self) -> usize {
        (self.total - self.next_idx) as usize
    }
}

impl fmt::Debug for StreamingArrivals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamingArrivals")
            .field("label", &self.source.label())
            .field("next_idx", &self.next_idx)
            .field("total", &self.total)
            .field("next_shard", &self.next_shard)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    #[test]
    fn mode_parses_and_displays() {
        assert_eq!(
            "materialized".parse::<ArrivalMode>().unwrap(),
            ArrivalMode::Materialized
        );
        assert_eq!(
            "Streaming".parse::<ArrivalMode>().unwrap(),
            ArrivalMode::Streaming
        );
        assert!("shard".parse::<ArrivalMode>().is_err());
        for mode in ArrivalMode::ALL {
            assert_eq!(mode.to_string().parse::<ArrivalMode>().unwrap(), mode);
        }
    }

    /// The queue-side cursor must emit exactly the `(time, event)` pairs
    /// the materialized path preloads — bit-equal times, same order.
    /// The CSV spec runs at pool width 1 (prefetch inline) and 2
    /// (prefetch pooled).
    #[test]
    fn streaming_arrivals_match_materialized_schedule() {
        let path = std::env::temp_dir().join(format!(
            "risa_streaming_arrivals_{}.csv",
            std::process::id()
        ));
        let trace = WorkloadSpec::synthetic(9000, 12).materialize();
        std::fs::write(&path, risa_workload::csv::to_csv(&trace)).unwrap();
        let csv = WorkloadSpec::TraceCsv {
            name: "disk".into(),
            path: path.display().to_string(),
        };
        for (spec, threads) in [
            (WorkloadSpec::synthetic(9000, 11), None), // > 2 shards
            (
                WorkloadSpec::azure(risa_workload::AzureSubset::N3000, 4),
                None,
            ),
            (csv.clone(), Some(1)),
            (csv, Some(2)),
        ] {
            let check = || {
                let workload = spec.materialize();
                let expect = crate::world::arrival_events(&workload);
                let mut cursor = StreamingArrivals::new(spec.shard_source().unwrap());
                assert_eq!(cursor.remaining(), expect.len());
                let mut got = Vec::new();
                while let Some(pair) = cursor.next() {
                    got.push(pair);
                }
                assert_eq!(got, expect);
                assert_eq!(cursor.remaining(), 0);
                assert!(cursor.peek_time().is_none());
            };
            match threads {
                Some(n) => rayon::with_num_threads(n, check),
                None => check(),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn peek_agrees_with_next() {
        let mut cursor =
            StreamingArrivals::new(WorkloadSpec::synthetic(50, 3).shard_source().unwrap());
        let mut seen = 0;
        while let Some(t) = cursor.peek_time() {
            let (at, event) = cursor.next().unwrap();
            assert_eq!(at, t);
            assert_eq!(event, SimEvent::Arrival(seen));
            seen += 1;
        }
        assert_eq!(seen, 50);
    }
}
