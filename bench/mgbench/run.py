#!/usr/bin/env python3
"""Build and run the mgbench benchmark (see README.md in this directory).

    python3 bench/mgbench/run.py --seed 1                 # all four workloads
    python3 bench/mgbench/run.py --workload npb-W --seed 3 --seconds 20 --trace 0
    python3 bench/mgbench/run.py --seeds 1-10 --out DIR   # a set of ten runs
    python3 bench/mgbench/run.py --trace                  # per-layer metrics
    python3 bench/mgbench/run.py --smoke                  # < 60 s self-check

Builds bench/mgbench (Release) into build/mgbench, runs each workload in its
own mgbench process, checks every answer, prints each metric as
`workload metric value unit`, writes DIR/results.json, and prints one JSON
summary as the last line of stdout.  Exits non-zero when a correctness check
fails or the sources to build are missing.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "mgbench")
MGBENCH = os.path.join(BUILD, "mgbench")
SERVER = os.path.join(BUILD, "sacpp", "examples", "mg_server")
WORKLOADS = ["npb-A", "npb-W", "serve-S", "cluster-W"]
RUN_TIMEOUT_S = 170          # one mgbench process, hard limit
MAX_GEN_LAG_MS = 2.0         # serve generator lag p99 that invalidates a set
MAX_BUSY_CORES = 0.5         # cores busy at start (1 s sample)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build mgbench and mg_server, Release only."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("run.py: the repository sources (CMakeLists.txt, src/) are missing")
        sys.exit(2)
    env = dict(os.environ, TMPDIR=scratch_dir())
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
               "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            log("run.py: cmake configure failed")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "mgbench", "mg_server",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        log("run.py: build failed")
        sys.exit(2)


def scratch_dir():
    path = os.path.join(BUILD, "tmp")
    os.makedirs(path, exist_ok=True)
    return path


def bench_env():
    """The environment with every SACPP_* knob removed: only the JIT
    microbenchmark's cache directory and synchronous-compile flag are set,
    so no environment setting can change the measured program."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SACPP_")}
    env["SACPP_JIT_CACHE_DIR"] = os.path.join(BUILD, "jit-cache")
    env["SACPP_JIT_SYNC"] = "1"
    env["TMPDIR"] = scratch_dir()
    return env


def run_mgbench(workload, seed, seconds, trace, out_dir, extra):
    os.makedirs(out_dir, exist_ok=True)
    cmd = [MGBENCH, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", out_dir, "--server", SERVER] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=bench_env(),
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"{workload}: mgbench exceeded {RUN_TIMEOUT_S} s"
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, ValueError):
        return None, f"{workload}: mgbench exited {proc.returncode} without a result"


def summarize(samples):
    """Median, quartiles (statistics.quantiles, exclusive) and n of the
    finite samples; `dropped` counts the others (null in mgbench's JSON)."""
    finite = [s for s in samples if s is not None and math.isfinite(s)]
    med = statistics.median(finite) if finite else None
    if len(finite) >= 2:
        q1, _, q3 = statistics.quantiles(finite, n=4)
    else:
        q1 = q3 = med
    return {"n": len(finite), "median": med, "q1": q1, "q3": q3,
            "dropped": len(samples) - len(finite), "samples": finite}


def fingerprint():
    def read(path):
        try:
            with open(path) as f:
                return f.read().strip()
        except OSError:
            return "unknown"

    model = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for i in range(8):
        d = f"/sys/devices/system/cpu/cpu0/cache/index{i}/"
        level, kind = read(d + "level"), read(d + "type")
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = read(d + "size")
    cache = read(os.path.join(BUILD, "CMakeCache.txt"))
    compiler = re.search(r"CMAKE_CXX_COMPILER:\w+=(.*)", cache)
    compiler = compiler.group(1) if compiler else "c++"
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    flags = "unknown"
    try:
        with open(os.path.join(BUILD, "compile_commands.json")) as f:
            for entry in json.load(f):
                if entry["file"].endswith("mg_sac.cpp"):
                    flags = " ".join(a for a in entry["command"].split()
                                     if a.startswith(("-O", "-m", "-f", "-g", "-D", "-std")))
                    break
    except (OSError, ValueError, KeyError):
        pass
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "cache": caches,
        "compiler": version[0] if version else compiler,
        "build_flags": flags,
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else "none",
        "source_sha256": source_hash(),
    }


def source_hash():
    """Hash of the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src", "examples", "bench/mgbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            if name.endswith((".py", ".pyc", ".md", ".json")):
                continue  # not built
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def busy_cores():
    """Cores busy over one second, from /proc/stat.  The 1-minute load
    average is recorded too, but it also counts tasks in uninterruptible
    sleep, which keep it near 1.5 on an idle virtual machine."""
    def sample():
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return sum(fields), fields[3] + fields[4]  # total, idle + iowait
    t0, i0 = sample()
    time.sleep(1.0)
    t1, i1 = sample()
    return (1.0 - (i1 - i0) / max(t1 - t0, 1)) * (os.cpu_count() or 1)


def check_metrics(result, wanted):
    """Every metric BENCHMARK.json names, with its unit and a finite value."""
    problems = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
        elif got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {got['unit']}, expected {m['unit']}")
        elif got["value"] is None or not math.isfinite(got["value"]):
            problems.append(f"{m['name']}: no finite value")
    return problems


def make_record(workload, seed, trace, result, wanted):
    """One run of results.json from mgbench's JSON, and its problems.  A
    metric with a non-finite sample (a latency that never ended, for
    example) makes the run incorrect; the sample is dropped from the
    statistics and counted."""
    bad = check_metrics(result, wanted)
    metrics = {}
    for name, m in result["metrics"].items():
        if m["value"] is None and not m["samples"]:
            continue  # an unlisted metric without a value; listed: see above
        stats = summarize(m["samples"] or [m["value"]])
        if stats["dropped"]:
            bad.append(f"{name}: {stats['dropped']} non-finite samples")
        metrics[name] = dict(unit=m["unit"], value=m["value"], **stats)
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": result["correct"] and not bad,
        "attempted": result["attempted"], "failed": result["failed"],
        "failures": result["failures"] + bad, "info": result["info"],
        "metrics": metrics,
    }, bad


def run_set(args, bench, seeds, workloads, trace, out_dir, extra_for):
    fp = fingerprint()
    load1 = os.getloadavg()[0]
    busy = busy_cores()
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    runs, problems = [], []
    for seed in seeds:
        for w in workloads:
            result, error = run_mgbench(w, seed, args.seconds, trace,
                                       os.path.join(out_dir, f"{w}-seed{seed}"),
                                       extra_for(w))
            if error:
                problems.append(error)
                runs.append({"workload": w, "seed": seed, "trace": trace,
                             "correct": False, "attempted": 1, "failed": 1,
                             "failures": [error], "info": {}, "metrics": {}})
                continue
            record, bad = make_record(w, seed, trace, result, wanted)
            problems += [f"{w}: {p}" for p in bad]
            runs.append(record)
            report_run(record)
    invalid = []
    if busy > MAX_BUSY_CORES:
        invalid.append(f"{busy:.2f} cores busy at start > {MAX_BUSY_CORES}")
    for r in runs:
        lag = r["metrics"].get("serve.gen_lag_ms.p99")
        if lag and (lag["value"] is None or lag["value"] > MAX_GEN_LAG_MS):
            invalid.append(f"{r['workload']} seed {r['seed']}: serve.gen_lag_ms.p99 "
                           f"{number(lag['value'], 3)} ms > {MAX_GEN_LAG_MS} ms")
    for reason in invalid:
        log(f"run.py: set marked invalid: {reason}")
    results = {"host": fp, "seconds": args.seconds, "trace": trace,
               "seeds": seeds, "valid": not invalid, "invalid_reasons": invalid,
               "busy_cores_at_start": busy, "loadavg_1min_at_start": load1,
               "runs": runs}
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.json"), "w") as f:
        json.dump(results, f, indent=1)
    return runs, problems


def ratios(info):
    """{ratio: (numerator, denominator)}, as mgbench recorded them."""
    return {key[len("ratio."):]: tuple(base.split("/"))
            for key, base in info.items() if key.startswith("ratio.")}


def number(value, digits=6):
    return "null" if value is None else f"{value:.{digits}g}"


def report_run(record):
    w, metrics = record["workload"], record["metrics"]
    for name in sorted(metrics):
        m = metrics[name]
        print(f"{w} {name} {number(m['value'])} {m['unit']}  (n={m['n']})")
    for name, (num, den) in ratios(record["info"]).items():
        if name in metrics and num in metrics and den in metrics:
            print(f"{w} {name} = {num} {number(metrics[num]['value'])} / "
                  f"{den} {number(metrics[den]['value'])} = "
                  f"{number(metrics[name]['value'], 4)}")
    for failure in record["failures"]:
        print(f"{w} FAILED: {failure}")


def summary_line(runs, bench, trace):
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    single = len(runs) == 1
    metrics = {}
    for r in runs:
        for m in wanted:
            got = r["metrics"].get(m["name"])
            if got is not None:
                key = m["name"] if single else f"{r['workload']}/s{r['seed']}/{m['name']}"
                metrics[key] = {"value": got["value"], "unit": got["unit"]}
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def smoke(args, bench):
    """Every workload on small inputs, one traced run, and two negative
    checks: a reference norm off by 1e-6 must fail the run, and so must a
    metric sample that mgbench wrote as null."""
    t0 = time.time()
    small = lambda w: [] if w == "serve-S" else ["--class", "S", "--reps", "1"]
    args.seconds = 5
    out = os.path.join(args.out, "smoke")
    runs, problems = run_set(args, bench, [args.seed], WORKLOADS, 0, out, small)
    traced, more = run_set(args, bench, [args.seed], ["npb-W"], 1,
                           os.path.join(out, "trace"), small)
    problems += more
    negative, error = run_mgbench("npb-W", args.seed, 5, 0, os.path.join(out, "negative"),
                                 small("npb-W") + ["--ref-scale", "1.000001"])
    if error or negative["correct"] or negative["failed"] == 0:
        problems.append("negative check: a reference norm off by 1e-6 did not fail the run")
    else:
        log(f"run.py: negative check failed the run as intended: {negative['failures'][0]}")
    null_sample = {"correct": True, "attempted": 1, "failed": 0, "failures": [],
                   "info": {}, "metrics": {"solve_s": {"unit": "s", "value": 1.0,
                                                       "samples": [1.0, None]}}}
    record, _ = make_record("npb-W", args.seed, 0, null_sample, [])
    if record["correct"] or record["metrics"]["solve_s"]["dropped"] != 1:
        problems.append("null-sample check: a non-finite sample did not fail the run")
    elapsed = time.time() - t0
    log(f"run.py: smoke finished in {elapsed:.1f} s")
    if elapsed > 60:
        problems.append(f"smoke took {elapsed:.1f} s (limit 60 s)")
    return runs + traced, problems


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    bench = load_benchmark()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, action="append",
                   help="run only this workload (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seeds", help="a set of runs, e.g. 1-10 or 1,3,5")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1], help="traced run: per-layer metrics")
    p.add_argument("--out", default=os.path.join(BUILD, "out"))
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    build()
    if args.smoke:
        runs, problems = smoke(args, bench)
        trace = 0
    else:
        seeds = parse_seeds(args.seeds) if args.seeds else [args.seed]
        runs, problems = run_set(args, bench, seeds,
                                 args.workload or WORKLOADS, args.trace,
                                 args.out, lambda w: [])
        trace = args.trace
    for problem in problems:
        log(f"run.py: {problem}")
    summary = {"correct": all(r["correct"] for r in runs) and not problems}
    summary.update(summary_line([r for r in runs if r["trace"] == trace],
                                bench, trace))
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
