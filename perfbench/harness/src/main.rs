//! Traced per-layer run of one benchmark workload.
//!
//! One invocation
//! 1. times the workload's set-up calls (`risa-workload` generation or CSV
//!    reads, `SimulationBuilder::try_build`),
//! 2. runs the simulation in-process with no spans inside (`sim.run_s`) —
//!    the untraced reference report,
//! 3. replays the same trace through `replay::replay`, a span around every
//!    layer call, and fails (exit 1) unless the replay reproduces the
//!    reference report,
//! 4. on `figures`, times each `risa_sim::experiments` entry point,
//!
//! then prints one JSON object of per-layer metrics on stdout and writes
//! the span records to `--spans`.
//!
//! ```text
//! risa-perfbench --workload saturated --seed 42 --n 1000000 --spans s.jsonl
//! risa-perfbench --workload steady --seed 42 --csv steady.csv --spans s.jsonl
//! ```
//!
//! `steady-stream` reads the CSV through `CsvFileShards`; its in-process
//! run takes the arrival pipeline from `RISA_ARRIVALS` like `risa-cli`.

mod replay;
mod tracer;

use replay::Outcome;
use risa_sched::Algorithm;
use risa_sim::{experiments, RunReport, SimConfig, SimulationBuilder, WorkloadSpec};
use risa_topology::TopologyConfig;
use risa_workload::{CsvFileShards, ShardSource, SyntheticConfig, VmRequest, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use tracer::{Layer, Tracer};

/// VMs whose spans are kept in full.
const SPAN_SAMPLE_VMS: usize = 2000;

struct Args {
    workload: String,
    seed: u64,
    n: u32,
    csv: Option<String>,
    spans: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == key)?;
        argv.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    let seed = get("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let n = match get("--n") {
        Some(v) => v.parse().map_err(|e| format!("--n: {e}"))?,
        None => 0,
    };
    let csv = get("--csv");
    let spans = get("--spans").ok_or("--spans is required")?;
    Ok(Args {
        workload,
        seed,
        n,
        csv,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("risa-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(metrics) => {
            let body: Vec<String> = metrics
                .iter()
                .map(|(k, v)| format!("\"{k}\":{}", json_num(*v)))
                .collect();
            println!("{{{}}}", body.join(","));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("risa-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn run(args: &Args) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for key in [
        "workload.generate_s",
        "workload.csv_parse_s",
        "workload.csv_shard_s",
        "sim.fig5_s",
        "sim.fig6_s",
        "sim.fig7_s",
        "sim.fig8_s",
        "sim.fig9_s",
        "sim.fig10_s",
        "sim.fig11_s",
        "sim.fig12_s",
        "sim.ablation_s",
    ] {
        m.insert(key, 0.0);
    }
    let mut tr = Tracer::start();

    // 1. Set-up: obtain the trace the way the workload's run does.
    let csv_path = || args.csv.clone().ok_or("this workload needs --csv");
    let (vms, spec): (Vec<VmRequest>, WorkloadSpec) = match args.workload.as_str() {
        "saturated" | "figures" => {
            let cfg = if args.workload == "saturated" {
                SyntheticConfig::small(args.n, args.seed)
            } else {
                SyntheticConfig::paper(args.seed)
            };
            let (w, secs) = tr.time("workload.generate", || Workload::synthetic(&cfg));
            m.insert("workload.generate_s", secs);
            (w.vms().to_vec(), WorkloadSpec::Synthetic(cfg))
        }
        "steady" => {
            let path = csv_path()?;
            let (w, secs) = tr.time("workload.csv_parse", || {
                let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
                risa_workload::csv::from_csv("steady", &text).map_err(|e| e.to_string())
            });
            m.insert("workload.csv_parse_s", secs);
            let w = w.map_err(|e| format!("{path}: {e}"))?;
            (w.vms().to_vec(), csv_spec(&path))
        }
        "steady-stream" => {
            let path = csv_path()?;
            let (vms, secs) = tr.time("workload.csv_shard", || {
                let src = CsvFileShards::open("steady", &path).map_err(|e| e.to_string())?;
                let mut vms = Vec::with_capacity(src.total_vms() as usize);
                for shard in 0..src.num_shards() {
                    vms.extend(src.shard_vms(shard).0);
                }
                Ok::<_, String>(vms)
            });
            m.insert("workload.csv_shard_s", secs);
            (vms.map_err(|e| format!("{path}: {e}"))?, csv_spec(&path))
        }
        other => return Err(format!("unknown workload '{other}'")),
    };

    // 2. The untraced in-process run: the reference report.
    let builder = SimulationBuilder::new()
        .algorithm(Algorithm::Risa)
        .workload(spec)
        .topology(TopologyConfig::paper());
    let (sim, secs) = tr.time("sim.build", || builder.try_build());
    m.insert("sim.build_s", secs);
    let mut sim = sim.map_err(|e| e.to_string())?;
    let (report, run_s) = tr.time("sim.run", || sim.run());
    m.insert("sim.run_s", run_s);
    let (json, secs) = tr.time("sim.report", || serde_json::to_string_pretty(&sim.report()));
    m.insert("sim.report_s", secs);
    black_box(json.map_err(|e| e.to_string())?);
    drop(sim);

    // 3. The traced replay, checked against the reference.
    tr.sample_vms(vms.len(), SPAN_SAMPLE_VMS);
    let root = tr.new_id();
    let t0 = Instant::now();
    let out = replay::replay(&vms, SimConfig::paper(), &mut tr, root);
    tr.top("sim.replay", root, t0, Instant::now());
    check(&out, &report)?;
    layer_metrics(&mut m, &tr, &out);
    m.insert("sim.replay_s", out.loop_s);
    m.insert(
        "trace.overhead_pct",
        if run_s > 0.0 {
            100.0 * (out.loop_s - run_s) / run_s
        } else {
            0.0
        },
    );

    // 4. The figure entry points `experiment all` runs, one span each.
    if args.workload == "figures" {
        let s = args.seed;
        type Fig = fn(u64) -> risa_sim::ExperimentReport;
        let figs: [(&'static str, &'static str, Fig); 8] = [
            ("sim.fig5", "sim.fig5_s", experiments::fig5),
            ("sim.fig6", "sim.fig6_s", experiments::fig6),
            ("sim.fig7", "sim.fig7_s", experiments::fig7),
            ("sim.fig8", "sim.fig8_s", experiments::fig8),
            ("sim.fig9", "sim.fig9_s", experiments::fig9),
            ("sim.fig10", "sim.fig10_s", experiments::fig10),
            ("sim.fig11", "sim.fig11_s", experiments::fig11),
            ("sim.fig12", "sim.fig12_s", experiments::fig12),
        ];
        for (span, key, fig) in figs {
            let (report, secs) = tr.time(span, || fig(black_box(s)));
            black_box(report);
            m.insert(key, secs);
        }
        let (reports, secs) = tr.time("sim.ablation", || {
            (
                experiments::ablation_trunk_width(s, &[1, 2, 4, 8]),
                experiments::ablation_alpha(s, &[0.5, 0.7, 0.9, 1.0]),
            )
        });
        black_box(reports);
        m.insert("sim.ablation_s", secs);
    }

    tr.write(&args.spans)
        .map_err(|e| format!("cannot write spans to {}: {e}", args.spans))?;
    Ok(m)
}

fn csv_spec(path: &str) -> WorkloadSpec {
    WorkloadSpec::TraceCsv {
        name: "steady".into(),
        path: path.to_string(),
    }
}

/// Fail loudly unless the replay reproduced the untraced report.
fn check(out: &Outcome, r: &RunReport) -> Result<(), String> {
    let pairs: [(&str, String, String); 8] = [
        ("total_vms", out.total.to_string(), r.total_vms.to_string()),
        (
            "admitted",
            out.admitted().to_string(),
            r.admitted.to_string(),
        ),
        ("dropped", out.drops.to_string(), r.dropped.to_string()),
        (
            "inter_rack_assignments",
            out.inter_rack.to_string(),
            r.inter_rack_assignments.to_string(),
        ),
        (
            "fallback_assignments",
            out.fallback_admits.to_string(),
            r.fallback_assignments.to_string(),
        ),
        (
            "optical_energy_j",
            format!("{:?}", out.optical_energy_j),
            format!("{:?}", r.optical_energy_j),
        ),
        (
            "mean_cpu_ram_latency_ns",
            format!("{:?}", out.mean_latency_ns),
            format!("{:?}", r.mean_cpu_ram_latency_ns),
        ),
        ("work", format!("{:?}", out.work), format!("{:?}", r.work)),
    ];
    let diffs: Vec<String> = pairs
        .iter()
        .filter(|(_, a, b)| a != b)
        .map(|(k, a, b)| format!("{k}: replay {a} != report {b}"))
        .collect();
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "replay does not match the report: {}",
            diffs.join("; ")
        ))
    }
}

fn layer_metrics(m: &mut BTreeMap<&'static str, f64>, tr: &Tracer, out: &Outcome) {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let pop = tr.layer(Layer::Pop);
    let push = tr.layer(Layer::Push);
    m.insert("des.queue_s", pop.secs() + push.secs());
    m.insert("des.events", out.events as f64);
    m.insert("des.peak_fel", out.peak_fel as f64);
    for (layer, s, n, us) in [
        (
            Layer::Intra,
            "core.intra_s",
            "core.intra_admits",
            "core.intra_us",
        ),
        (
            Layer::Fallback,
            "core.fallback_s",
            "core.fallback_admits",
            "core.fallback_us",
        ),
        (Layer::Drop, "core.drop_s", "core.drops", "core.drop_us"),
    ] {
        let acc = tr.layer(layer);
        m.insert(s, acc.secs());
        m.insert(n, acc.count as f64);
        m.insert(us, acc.mean_us());
    }
    let release = tr.layer(Layer::Release);
    m.insert("core.release_s", release.secs());
    m.insert("core.releases", release.count as f64);
    let calls = out.work.calls as f64;
    m.insert("core.admit_ratio", ratio(f64::from(out.admitted()), calls));
    m.insert("core.fallback_attempts", f64::from(out.fallback_attempts));
    m.insert(
        "core.fallback_yield",
        ratio(
            f64::from(out.fallback_admits),
            f64::from(out.fallback_attempts),
        ),
    );
    m.insert(
        "core.racks_scanned_per_call",
        ratio(out.work.racks_scanned as f64, calls),
    );
    m.insert(
        "core.boxes_scanned_per_call",
        ratio(out.work.boxes_scanned as f64, calls),
    );
    m.insert(
        "core.links_scanned_per_call",
        ratio(out.work.links_scanned as f64, calls),
    );
    let energy = tr.layer(Layer::Energy);
    m.insert("photonics.energy_s", energy.secs());
    m.insert("photonics.calls", 2.0 * energy.count as f64);
    m.insert("sim.accounting_s", tr.layer(Layer::Accounting).secs());
    m.insert(
        "sim.event_self_s",
        tr.layer(Layer::Event).self_time.as_secs_f64(),
    );
    let total = f64::from(out.total);
    m.insert(
        "traffic.intra_pct",
        100.0 * ratio(f64::from(out.intra_admits), total),
    );
    m.insert(
        "traffic.fallback_pct",
        100.0 * ratio(f64::from(out.fallback_admits), total),
    );
    m.insert(
        "traffic.drop_pct",
        100.0 * ratio(f64::from(out.drops), total),
    );
    m.insert("traffic.mean_resident", out.mean_resident);
    m.insert("traffic.peak_resident", f64::from(out.peak_resident));
}
