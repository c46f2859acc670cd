#!/usr/bin/env python3
"""Benchmark runner for the VAB workspace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py compare A.json B.json

Run from the repository root. Builds `vab-perfbench` (this directory's own
cargo package) and `vab-svcd`, then runs the workload single-threaded in
three `vab-perfbench` processes in turn, which repeat the workload's
units for a third of the measuring window each. `--trace 0` prints the
end-to-end metrics of BENCHMARK.json; `--trace 1` runs one round
untraced and one traced, each in its own process, and prints the
per-layer metrics. The last stdout line is the result object; the line
before it is the machine fingerprint. `--out` also saves both to a file,
and `compare` refuses to compare two saved files whose machine
fingerprints differ. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("library", "service")
# After the measuring window, the set-ups and the last rounds may take
# this long before a process counts as hung and is killed, so that even
# a hung run ends within three minutes.
GRACE_S = 90.0
# Processes per timed run, one after the other, sharing the window.
# Runs of the same code in different processes differ by up to 10%
# while one process repeats itself within 3%, so every unit's fastest
# run is looked for in several processes.
PROCESSES = 3
# VAB_THREADS, daemon workers and service clients. One thread: on a
# shared host with a few cores, more threads at once measure the
# scheduler (a parallel section waits for its slowest thread).
THREADS = 1
# Fingerprint keys that must match before two results are compared.
MACHINE_KEYS = ("nproc", "vab_threads", "daemon_workers", "cpus_used", "cpu_model", "rustc")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    """Builds the benchmark binary and the daemon; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    manifests = [
        os.path.join(ROOT, "perfbench", "Cargo.toml"),
        os.path.join(ROOT, "Cargo.toml"),
    ]
    commands = [
        ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", manifests[0]],
        ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", manifests[1],
         "-p", "vab-bench", "--bin", "vab-svcd"],
    ]
    for cmd in commands:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "vab-perfbench"), os.path.join(release, "vab-svcd")


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout may not
    be a git repository)."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, name) for name in ("Cargo.toml", "Cargo.lock")]
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def fingerprint(nproc):
    cpu_model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {
        "nproc": nproc,
        "vab_threads": THREADS,
        "daemon_workers": THREADS,
        "cpus_used": 1,
        "cpu_model": cpu_model,
        "rustc": rustc,
        "git_sha": git.stdout.strip() if git.returncode == 0 else None,
        "source_sha256": source_digest(),
    }


def kill(proc):
    """Kills a benchmark process and everything it started, and reaps it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


class Runner:
    """Starts `vab-perfbench` processes."""

    def __init__(self, args, binary, svcd, tmp, deadline):
        self.args, self.binary, self.svcd = args, binary, svcd
        self.tmp, self.deadline = tmp, deadline
        self.count = 0

    def spawn(self, scratch, seconds, traced):
        """Starts one process in a session of its own, so a kill reaches
        the daemons it starts."""
        env = {k: v for k, v in os.environ.items() if k not in ("VAB_OBS", "VAB_OBS_PATH", "VAB_PROFILE")}
        env["VAB_THREADS"] = str(THREADS)
        if traced:
            env.update(VAB_OBS="jsonl", VAB_OBS_PATH=os.path.join(scratch, "trace.jsonl"), VAB_PROFILE="1")
        cmd = [self.binary, self.args.workload, "--seed", str(self.args.seed), "--tmp", scratch,
               "--seconds", str(seconds), "--workers", str(THREADS), "--svcd", self.svcd]
        cmd += ["--traced"] if traced else []
        return subprocess.Popen(cmd, cwd=scratch, env=env, stdout=subprocess.PIPE, text=True,
                                start_new_session=True)

    def run(self, seconds, traced):
        """One process: set-up, then rounds for `seconds` (0: one round)."""
        self.count += 1
        scratch = os.path.join(self.tmp, f"run-{self.count}")
        os.makedirs(scratch)
        proc = self.spawn(scratch, seconds, traced)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            kill(proc)
            fail(f"{self.args.workload} run overran its deadline")
        finally:
            if proc.returncode is None:
                kill(proc)
        if proc.returncode != 0:
            fail(f"{self.args.workload} run failed (exit {proc.returncode})")
        report = json.loads(out.strip().splitlines()[-1])
        shutil.rmtree(scratch, ignore_errors=True)
        return report


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tally(reports):
    """(attempted, failures): each process's checks, plus, across
    processes, one comparison of their first rounds' output digests (same
    seed, same output bytes)."""
    attempted = sum(int(p["attempted"]) for p in reports) + len(reports) - 1
    failures = [msg for p in reports for msg in p["failures"]]
    failures += [f"process {i + 1} output digest {p['digest']} differs from {reports[0]['digest']}"
                 for i, p in enumerate(reports[1:], 1) if p["digest"] != reports[0]["digest"]]
    return attempted, failures


def combine(reports):
    """End-to-end values from the samples of one or more processes. Wall
    and CPU time: per unit, its fastest run; summed over the units.
    Set-up time and peak resident set: medians of all samples."""
    units = {}
    for r in reports:
        for name, laps in r["units"].items():
            pooled = units.setdefault(name, {"wall_s": [], "cpu_s": []})
            for key in pooled:
                pooled[key] += laps[key]
    out = {key: sum(min(u[key]) for u in units.values()) for key in ("wall_s", "cpu_s")}
    for key in ("setup_s", "peak_rss_mb"):
        out[key] = statistics.median(v for r in reports for v in r[key])
    return out


def per_layer(untraced, traced):
    out = {}
    for name, value in traced["layers"].items():
        if name.startswith("span.bench."):
            name = name[len("span."):-len(".time_s")] + ".wall_s"
        out[name] = value
    plain, traced_values = combine([untraced]), combine([traced])
    out["obs.overhead_ratio"] = traced_values["wall_s"] / plain["wall_s"]
    out["sim.parallel_efficiency"] = plain["cpu_s"] / (plain["wall_s"] * THREADS)
    if "cold_ms" in untraced["extra"]:
        # Service latency and throughput from the untraced process; the
        # client-side span quantiles from the traced one.
        svc = untraced["extra"]
        for phase in ("cold", "warm"):
            out[f"svc_{phase}_p50_ms"] = percentile(svc[f"{phase}_ms"], 50)
            out[f"svc_{phase}_p99_ms"] = percentile(svc[f"{phase}_ms"], 99)
            out[f"svc_{phase}_jobs_per_s"] = svc["jobs"] / svc[f"{phase}_wall_s"]
        for key, name in (("submit_ms", "svc_submit_rtt"), ("fetch_wait_ms", "svc_fetch_wait")):
            out[f"span.{name}.p50_ms"] = percentile(traced["extra"][key], 50)
            out[f"span.{name}.p99_ms"] = percentile(traced["extra"][key], 99)
    return out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(args):
    for path in ("Cargo.toml", "Cargo.lock", "crates", os.path.join("perfbench", "Cargo.lock")):
        if not os.path.exists(os.path.join(ROOT, path)):
            fail(f"{path} not found: run from a full checkout of the repository")
    spec = load_spec()
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary, svcd = build(target_dir)
    # A hung process is killed well before the run's own limit.
    deadline = time.monotonic() + args.seconds + GRACE_S
    allowed = os.sched_getaffinity(0)
    nproc = len(allowed)
    fp = fingerprint(nproc)
    # Every process of the run, the daemons included, shares one CPU:
    # the client and the daemon of `service` hand each job back and forth,
    # and on a virtual machine a wake-up on another vCPU waits for the
    # host to run that vCPU. The last CPU, since interrupts favour CPU 0.
    os.sched_setaffinity(0, {max(allowed)})
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    try:
        runner = Runner(args, binary, svcd, tmp, deadline)
        if args.trace:
            untraced = runner.run(0, traced=False)
            traced = runner.run(0, traced=True)
            reports = [untraced, traced]
            layers = per_layer(untraced, traced)
            metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                       for m in spec["per_layer"]}
        else:
            reports = []
            window_end = time.monotonic() + args.seconds
            for k in range(PROCESSES):
                share = max(0.0, window_end - time.monotonic()) / (PROCESSES - k)
                reports.append(runner.run(share, traced=False))
            values = combine(reports)
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    attempted, failures = tally(reports)
    for msg in failures:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"fingerprint": fp, "workload": args.workload, "seed": args.seed,
                       "trace": args.trace,
                       "processes": [{k: p[k] for k in ("units", "setup_s", "peak_rss_mb")}
                                     for p in reports],
                       "result": result}, f, indent=1)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(json.dumps(result))


def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    differ = [k for k in MACHINE_KEYS if a["fingerprint"].get(k) != b["fingerprint"].get(k)]
    if differ:
        fail("refusing to compare results from different machines: " + ", ".join(
            f"{k} {a['fingerprint'].get(k)!r} vs {b['fingerprint'].get(k)!r}" for k in differ))
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        fail("refusing to compare different workloads or trace modes")
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in ma:
        if name in mb:
            va, vb = ma[name]["value"], mb[name]["value"]
            ratio = f"{vb / va:.3f}x" if va else "n/a"
            print(f"{name:48} {va:14.6g} {vb:14.6g} {ratio:>9} {ma[name]['unit']}")


def main():
    # A SIGTERM unwinds like an error, so the `finally` clauses kill and
    # reap the process group of a running process and remove scratch state.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare A.json B.json")
        compare(sys.argv[2], sys.argv[3])
        return
    parser = argparse.ArgumentParser(description="VAB workspace benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")
    measure(args)


if __name__ == "__main__":
    main()
