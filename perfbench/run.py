#!/usr/bin/env python3
"""RISA benchmark: end-to-end `risa-cli` runs, or a traced per-layer replay.

Run from the repository root:

    python3 perfbench/run.py --workload saturated --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25 --trace 0

`--trace 0` times the release `risa-cli` as a child process (tracing off)
and reports the end-to-end metrics of BENCHMARK.json. `--trace 1` runs the
benchmark's own harness (perfbench/harness), which links the workspace
crates, times each layer's public calls and checks that its replay
reproduces the untraced report; it reports the per-layer metrics.

Both modes repeat their unit of work until `--seconds` have passed and
report, per metric, the mean of the repeats without the fastest and the
slowest one. The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; a failed check shows as
`"correct": false` and a FAILED line on stderr. Exit code 2 means no
result: not run from a repository root, or the build failed. The program
is built from source first (into $CARGO_TARGET_DIR, default
`.bench_build`); generated inputs, span files and the host record go to
`.bench_work`.

Workloads and metric definitions: perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")
GOLDEN = os.path.join(BENCH, "golden")

# Golden outputs were captured at this seed (`figures`: with no --seed).
DEFAULT_SEED = 42
SATURATED_VMS = 1_000_000
STEADY_VMS = 500_000
# Fig. 5 and Fig. 11 run the paper's 2500-VM synthetic workload.
PAPER_VMS = 2500
# Fig. 12 runs Azure-3000, -5000 and -7500.
AZURE_VMS = 15500
# VM requests one `experiment all` simulates: Figs. 5 and 11 (4 schedulers
# x 2500), Figs. 7-10 and 12 (5 x 4 schedulers x 15500), the trunk-width
# ablation (4 widths x 4 schedulers x 1000) and the alpha ablation
# (4 alphas x 2 schedulers x 3000).
FIGURES_VM_REQUESTS = 2 * 4 * PAPER_VMS + 5 * 4 * AZURE_VMS + 4 * 4 * 1000 + 4 * 2 * 3000
MIN_REPS = 3
CHILD_TIMEOUT_S = 150

WORKLOADS = ("saturated", "steady", "steady-stream", "figures")
# The only RISA_* variable a child sees; every other one is removed.
WORKLOAD_ENV = {"steady-stream": {"RISA_ARRIVALS": "streaming"}}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log(f"perfbench: {msg}")
    sys.exit(code)


# ---------------------------------------------------------------- build


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Build risa-cli and the harness; return their paths."""
    for needed in ("Cargo.toml", "crates", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(f"run from the repository root: {needed} is missing")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "risa-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(BENCH, "harness", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            die(f"build failed: {' '.join(cmd)}")
    rel = os.path.join(target_dir(), "release")
    return os.path.join(rel, "risa-cli"), os.path.join(rel, "risa-perfbench")


# ---------------------------------------------------------------- inputs


def steady_csv(seed):
    """The `steady` trace for `seed` (see gen_steady.py), generated untimed
    and cached. The file is named steady.csv so the report's workload label
    is the same at every seed."""
    d = os.path.join(WORK, "steady", f"{seed}-{STEADY_VMS}")
    path = os.path.join(d, "steady.csv")
    if not os.path.exists(path):
        os.makedirs(d, exist_ok=True)
        cmd = [sys.executable, os.path.join(BENCH, "gen_steady.py"),
               "--seed", str(seed), "--vms", str(STEADY_VMS), "--out", path]
        if subprocess.run(cmd).returncode != 0:
            die(f"cannot generate {path}")
    return path


def child_env(workload):
    env = {k: v for k, v in os.environ.items() if not k.startswith("RISA_")}
    env.update(WORKLOAD_ENV.get(workload, {}))
    return env


# ---------------------------------------------------------------- child runs


def vm_hwm_mb(pid):
    """Peak resident set (VmHWM) of a running process, or None once it is
    gone. wait4's ru_maxrss is no use here: it includes the parent's RSS at
    spawn time, which floors small programs at this interpreter's size."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def run_child(argv, env):
    """Run `argv`; return exit code, wall time, line arrival times, output
    and peak RSS (VmHWM sampled every 10 ms; the last few ms are missed)."""
    t0 = time.perf_counter()
    # Popen returns once the child has exec'd, so every sample below is of
    # the program's own address space.
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ, "out")
    sel.register(proc.stderr, selectors.EVENT_READ, "err")
    buf = {"out": bytearray(), "err": bytearray()}
    first_out = None
    resolved = None
    resolved_line = None
    rss_mb = 0.0
    open_pipes = 2
    while open_pipes:
        if time.perf_counter() - t0 > CHILD_TIMEOUT_S:
            proc.kill()
        hwm = vm_hwm_mb(proc.pid)
        if hwm is not None:
            rss_mb = max(rss_mb, hwm)
        for key, _ in sel.select(timeout=0.01):
            chunk = os.read(key.fileobj.fileno(), 65536)
            now = time.perf_counter() - t0
            if not chunk:
                sel.unregister(key.fileobj)
                open_pipes -= 1
                continue
            b = buf[key.data]
            start = len(b)
            b.extend(chunk)
            if key.data == "out" and first_out is None and b"\n" in chunk:
                first_out = now
            if key.data == "err" and resolved is None:
                # Match by prefix only: fields after "resolved:" may change.
                tail = bytes(b[max(0, start - 200):])
                for line in tail.split(b"\n")[:-1]:
                    if line.startswith(b"resolved:"):
                        resolved, resolved_line = now, line.decode()
                        break
    proc.wait()
    wall = time.perf_counter() - t0
    proc.stdout.close()
    proc.stderr.close()
    return {
        "rc": proc.returncode,
        "wall": wall,
        "first_out": first_out,
        "resolved": resolved,
        "resolved_line": resolved_line,
        "stdout": buf["out"].decode(errors="replace"),
        "stderr": buf["err"].decode(errors="replace"),
        "rss_mb": rss_mb,
    }


# ---------------------------------------------------------------- checks


def report_digest(report):
    """Digest of every deterministic report field (all but sched_seconds)."""
    det = {k: v for k, v in report.items() if k != "sched_seconds"}
    blob = json.dumps(det, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def mask_figures(text):
    """`experiment all` text with the wall-clock cells masked: Fig. 11's
    time columns and all of Fig. 12a. Those tables' alignment follows the
    cell widths, so their whitespace and rulers are normalised too."""
    out = []
    section = ""
    for line in text.splitlines():
        if line.startswith("Figure ") or line.startswith("Ablation"):
            section = line
        timed = section.startswith("Figure 11:") or section.startswith("Figure 12a:")
        toks = line.split()
        if timed and toks:
            if set(line.strip()) <= {"=", "-"}:
                toks = [line.strip()[0]]
            elif section.startswith("Figure 11:") and len(toks) == 5 and toks[0] != "algorithm":
                toks[1] = toks[2] = "*"
            elif section.startswith("Figure 12a:") and toks[0].startswith("Azure-"):
                toks[1:] = ["*"] * (len(toks) - 1)
            line = " ".join(toks)
        out.append(line.rstrip())
    return "\n".join(out) + "\n"


def table_rows(text, title_prefix):
    """Rows (token lists) of the table whose title starts with the prefix."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(title_prefix):
            rows = []
            j = i + 1
            while j < len(lines) and not lines[j].startswith("-"):
                j += 1
            for row in lines[j + 1:]:
                if not row.strip():
                    break
                rows.append(row.split())
            return rows
    raise ValueError(f"no table '{title_prefix}' in the output")


def row_for(rows, key):
    for r in rows:
        if r[0] == key:
            return r
    raise ValueError(f"no row '{key}'")


def col_for(text, title_prefix, row_key, col):
    """Cell of an Azure table (header: workload NULB NALB RISA RISA-BF)."""
    cols = {"NULB": 1, "NALB": 2, "RISA": 3, "RISA-BF": 4}
    return float(row_for(table_rows(text, title_prefix), row_key)[cols[col]])


# ---------------------------------------------------------------- untraced


def keep_going(t0, attempts, seconds):
    """Repeat for `seconds`, at least MIN_REPS times, but never past
    `seconds` + 60 so a run stays inside its time limit."""
    elapsed = time.perf_counter() - t0
    return elapsed < seconds + 60 and (attempts < MIN_REPS or elapsed < seconds)


def run_rep(cli, workload, seed):
    """One `risa-cli` child run; returns (metrics, fingerprint, problems)."""
    env = child_env(workload)
    if workload == "figures":
        argv = [cli, "experiment", "all"] + ([] if seed is None else ["--seed", str(seed)])
    elif workload == "saturated":
        argv = [cli, "run", "--n", str(SATURATED_VMS), "--seed", str(seed), "--json"]
    else:
        argv = [cli, "run", "--workload", steady_csv(seed), "--json"]
    c = run_child(argv, env)
    problems = []
    if c["rc"] != 0:
        return None, None, [f"exit code {c['rc']}: {c['stderr'].strip()[-300:]}"], c
    try:
        if workload == "figures":
            m, fp = figures_metrics(c)
        else:
            m, fp, problems = run_metrics(c)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as e:
        return None, None, [f"cannot read the output: {e!r}"], c
    return m, fp, problems, c


def run_metrics(c):
    if c["resolved"] is None:
        raise ValueError("no 'resolved:' line on stderr")
    r = json.loads(c["stdout"])
    total, admitted = r["total_vms"], r["admitted"]
    problems = []
    if admitted + r["dropped"] != total:
        problems.append(f"admitted {admitted} + dropped {r['dropped']} != total_vms {total}")
    w = r["work"]
    ops = w["boxes_scanned"] + w["racks_scanned"] + w["links_scanned"] + w["sorts"]
    m = {
        "wall_s": c["wall"],
        "setup_s": c["resolved"],
        "events_per_s": (total + admitted) / (c["wall"] - c["resolved"]),
        "peak_rss_mb": c["rss_mb"],
        "sched_us_per_vm": 1e6 * r["sched_seconds"] / total,
        "admit_pct": 100.0 * admitted / total,
        "intra_rack_pct": 100.0 * (admitted - r["inter_rack_assignments"]) / total,
        "optical_power_kw": r["optical_power_w"] / 1000.0,
        "cpu_ram_latency_ns": r["mean_cpu_ram_latency_ns"],
        "sched_ops_per_vm": ops / w["calls"],
    }
    profile = {
        "intra_pct": 100.0 * (admitted - r["fallback_assignments"]) / total,
        "fallback_pct": 100.0 * r["fallback_assignments"] / total,
        "drop_pct": 100.0 * r["dropped"] / total,
    }
    return m, (report_digest(r), profile, c["resolved_line"]), problems


def figures_metrics(c):
    text = c["stdout"]
    if c["first_out"] is None:
        raise ValueError("no output")
    risa5 = row_for(table_rows(text, "Figure 5:"), "RISA")
    dropped, inter = int(risa5[2]), int(risa5[1])
    risa11 = row_for(table_rows(text, "Figure 11:"), "RISA")
    sched_ms = float(risa11[1]) + sum(
        col_for(text, "Figure 12a:", f"Azure-{n}", "RISA") for n in (3000, 5000, 7500))
    m = {
        "wall_s": c["wall"],
        "setup_s": c["first_out"],
        "events_per_s": FIGURES_VM_REQUESTS / c["wall"],
        "peak_rss_mb": c["rss_mb"],
        "sched_us_per_vm": 1e3 * sched_ms / (PAPER_VMS + AZURE_VMS),
        "admit_pct": 100.0 * (PAPER_VMS - dropped) / PAPER_VMS,
        "intra_rack_pct": 100.0 * (PAPER_VMS - dropped - inter) / PAPER_VMS,
        "optical_power_kw": col_for(text, "Figure 9:", "Azure-3000", "RISA"),
        "cpu_ram_latency_ns": col_for(text, "Figure 10:", "Azure-3000", "RISA"),
        "sched_ops_per_vm": col_for(text, "Figure 12b:", "Azure-7500", "RISA"),
    }
    masked = mask_figures(text)
    return m, (hashlib.sha256(masked.encode()).hexdigest(), None, None)


def golden_path(workload):
    if workload == "figures":
        return os.path.join(GOLDEN, "figures.txt")
    # Streaming must reproduce the materialized report byte for byte.
    return os.path.join(GOLDEN, f"{workload.replace('steady-stream', 'steady')}.digest")


def golden_check(cli, workload, capture=False):
    """Warm-up run at the golden seed, compared with the stored output (or,
    with `capture`, stored as the new golden output).
    Returns (problems, resolved_line)."""
    seed = None if workload == "figures" else DEFAULT_SEED
    m, fp, problems, c = run_rep(cli, workload, seed)
    if m is None:
        return problems, None
    got = mask_figures(c["stdout"]) if workload == "figures" else fp[0] + "\n"
    if capture:
        with open(golden_path(workload), "w") as f:
            f.write(got)
        log(f"captured {golden_path(workload)}")
    with open(golden_path(workload)) as f:
        want = f.read()
    if got != want:
        problems.append(f"output at the golden seed differs from {golden_path(workload)}")
    return problems, fp[2]


def untraced(cli, workload, seed, seconds, capture):
    attempted, failures = 0, []
    if workload.startswith("steady"):
        steady_csv(seed)  # generate outside the timed loop
    problems, resolved_line = golden_check(cli, workload, capture)
    attempted += 1
    if problems:
        failures.append(("golden", problems))
    reps, fingerprints = [], []
    t0 = time.perf_counter()
    while keep_going(t0, attempted - 1, seconds):
        m, fp, problems, _ = run_rep(cli, workload, seed)
        attempted += 1
        if fp is not None and fingerprints and fp[0] != fingerprints[0][0]:
            problems = problems + ["deterministic output differs from the first repeat"]
        if problems:
            failures.append((f"seed {seed} repeat {attempted - 1}", problems))
        if m is not None:
            reps.append(m)
            fingerprints.append(fp)
    if fingerprints and fingerprints[0][1]:
        prof = fingerprints[0][1]
        log(f"traffic [{workload} seed {seed}]: intra {prof['intra_pct']:.2f}% "
            f"fallback {prof['fallback_pct']:.2f}% drop {prof['drop_pct']:.2f}% of arrivals")
    return reps, attempted, failures, resolved_line


# ---------------------------------------------------------------- traced


def traced(harness, workload, seed, seconds):
    attempted, failures, reps = 0, [], []
    spans = os.path.join(WORK, f"spans-{workload}-{seed}.jsonl")
    argv = [harness, "--workload", workload, "--seed", str(seed), "--spans", spans]
    if workload == "saturated":
        argv += ["--n", str(SATURATED_VMS)]
    elif workload.startswith("steady"):
        argv += ["--csv", steady_csv(seed)]
    t0 = time.perf_counter()
    while keep_going(t0, attempted, seconds):
        c = run_child(argv, child_env(workload))
        attempted += 1
        if c["rc"] != 0:
            failures.append((f"traced repeat {attempted}", [c["stderr"].strip()[-500:]]))
        else:
            reps.append(json.loads(c["stdout"].strip().splitlines()[-1]))
    log(f"spans: {spans}")
    return reps, attempted, failures, None


# ---------------------------------------------------------------- host record


def source_id():
    """The git revision, or a digest of the sources outside a git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor"):
        p = os.path.join(ROOT, top)
        files = [p] if os.path.isfile(p) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(p) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree:" + h.hexdigest()[:16]


def calibration_s():
    """Time of a fixed pure-Python loop: the host's speed drifts by tens of
    percent over minutes, and this record makes that visible."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record(args, resolved_line):
    rec = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "source": source_id(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "calibration_s": statistics.median(calibration_s() for _ in range(3)),
        "resolved": resolved_line,
    }
    with open(os.path.join(WORK, "sessions.jsonl"), "a") as f:
        f.write(json.dumps(rec) + "\n")
    log("host: " + json.dumps(rec))


# ---------------------------------------------------------------- main


def trimmed_mean(vals):
    """Mean after dropping the fastest and the slowest repeat (from five
    repeats up). The host alternates between fast and slow phases lasting
    seconds, so the repeats of one run are bimodal: their median jumps
    between the two modes from run to run, while this mean moves smoothly
    with the share of slow repeats and still ignores a single stall."""
    vals = sorted(vals)
    if len(vals) >= 5:
        vals = vals[1:-1]
    return statistics.fmean(vals)


def aggregate(reps, names):
    out = {}
    for name in names:
        vals = [r[name] for r in reps if r.get(name) is not None]
        if vals:
            out[name] = trimmed_mean(vals)
    return out


def measure(args, spec, cli, harness, workload):
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if args.trace:
        reps, attempted, failures, resolved = traced(harness, workload, args.seed, args.seconds)
    else:
        reps, attempted, failures, resolved = untraced(
            cli, workload, args.seed, args.seconds, args.capture_golden)
    med = aggregate(reps, names)
    missing = [n for n in names if n not in med]
    if reps and missing:
        failures.append(("metrics", [f"not measured: {', '.join(missing)}"]))
    for where, problems in failures:
        for p in problems:
            log(f"FAILED [{workload} {where}]: {p}")
    for n in names:
        if n in med:
            vals = [r[n] for r in reps]
            log(f"{workload:14s} {n:30s} {med[n]:14.6g} {units[n]:8s} "
                f"(min {min(vals):.6g}, max {max(vals):.6g}, n={len(vals)})")
    metrics = {n: {"value": med[n], "unit": units[n]} for n in names if n in med}
    return metrics, attempted, len(failures), resolved


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--capture-golden", action="store_true",
                    help="store this build's outputs at the golden seed as the reference "
                         "(only when the modelled outputs change on purpose)")
    args = ap.parse_args()

    cli, harness = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(WORK, exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    resolved_line = None
    for w in names:
        metrics, attempted, failed, resolved = measure(args, spec, cli, harness, w)
        resolved_line = resolved_line or resolved
        prefix = f"{w}/" if args.workload == "all" else ""
        result["metrics"].update({prefix + k: v for k, v in metrics.items()})
        result["attempted"] += attempted
        result["failed"] += failed
        if args.workload == "all":
            print(json.dumps({"workload": w, "failed": failed, "metrics": metrics}))
    result["correct"] = result["failed"] == 0
    host_record(args, resolved_line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
