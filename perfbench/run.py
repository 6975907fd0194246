"""mellin-edge benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload edge_apply --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

Each run generates its inputs from the seed, then starts fresh Python
processes one after another, never in parallel.  The workload process
imports ``mellin_edge.cli``, makes one invocation, drives the subcommand
in a closed loop (one client) for ``--seconds``, repeats its first input
and checks every output.  With ``--trace 0`` three set-up probes, each
importing the CLI and making one checked invocation, run one before the
workload process and the others in pauses of its loop.  ``--trace 1``
runs the workload process alone, untraced for the first third of the loop
and traced for the rest, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (provenance, parameters, the ungated loop statistics,
failures).  Work files go to ``.perfbench_work/`` in the checkout.
"""

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

from worker import PAUSE      # the worker's request to run a probe

HERE = os.path.dirname(os.path.abspath(__file__))
# Reported in the run record but not gated in BENCHMARK.json: their
# run-to-run spread on a host whose CPU speed drifts exceeds the largest
# bound allowed (README).
RECORDED = {"first_result_s": "s", "latency_p50_s": "s", "ops_per_s": "1/s",
            "fail_frac": "ratio", "tail_percentile": "%"}
PROBES = 3              # set-up probes; the workload process is a fourth sample
HEADROOM = 4            # inputs generated per nominal invocation of the loop
PROBE_TIMEOUT_S = 60
MAIN_TIMEOUT_S = 120    # beyond --seconds


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def blas_info():
    """(library, thread count) of the BLAS numpy loaded in this process."""
    import ctypes

    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    name = "%s %s" % (blas.get("name"), blas.get("version"))
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = [ln.split()[-1] for ln in fh if "blas" in ln.lower()]
    if paths:
        lib = ctypes.CDLL(paths[0])
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def git_commit(root):
    """HEAD commit read from .git without running git; None outside a clone."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(root, ".git", ref)
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for ln in fh:
                if ln.rstrip().endswith(" " + ref):
                    return ln.split()[0]
    return None


def src_digest(src):
    h = hashlib.sha256()
    pkg = os.path.join(src, "mellin_edge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance(root, src, name, w, args):
    from importlib.metadata import version

    blas, threads = blas_info()
    return {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "params": w.params, "why": w.why,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "sympy": version("sympy"), "blas": blas, "blas_threads": threads,
            "git_commit": git_commit(root), "src_sha256": src_digest(src)}


def spawn(argv, env, timeout, on_pause=None):
    """Run one worker to completion, passing it its CLOCK_MONOTONIC spawn
    time.  Each time the worker prints PAUSE, call on_pause() and resume it;
    the time spent in on_pause() does not count against the timeout."""
    t0 = now()
    deadline = t0 + timeout
    with subprocess.Popen(argv + ["--spawned-at", repr(t0)], env=env,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
        try:
            buf = b""
            while True:
                ready, _, _ = select.select([proc.stdout], [], [],
                                            max(deadline - now(), 0.0))
                if not ready:
                    raise subprocess.TimeoutExpired(argv, timeout)
                chunk = os.read(proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    if line.decode() != PAUSE:
                        sys.stderr.write(line.decode() + "\n")
                        continue
                    t_pause = now()
                    on_pause()
                    deadline += now() - t_pause
                    proc.stdin.write(b"go\n")
                    proc.stdin.flush()
            rc = proc.wait(timeout=max(deadline - now(), 1.0))
        except BaseException as e:
            proc.kill()
            proc.wait()
            if isinstance(e, subprocess.TimeoutExpired):
                raise SystemExit("perfbench: worker timed out after %d s"
                                 % timeout) from e
            raise
    if rc != 0:
        raise SystemExit("perfbench: worker exited with %d" % rc)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tail(lat):
    """Highest percentile with at least 10 samples beyond it: (value, pct)."""
    s = sorted(lat)
    k = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def run_workload(root, src, name, args):
    import workloads

    w = workloads.WORKLOADS[name]
    work = os.path.join(".perfbench_work", name)
    shutil.rmtree(work, ignore_errors=True)
    n_probes = 0 if args.trace else PROBES
    n_loop = math.ceil(HEADROOM * args.seconds / w.nominal_s) + 1
    n_inputs = 1 + n_probes + n_loop
    for i in range(n_inputs):
        workloads.generate(name, args.seed, i, os.path.join(work, "in", "%04d" % i))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    base = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", name, "--work", work]
    probes = []

    def probe():
        j = 1 + len(probes)
        res = os.path.join(work, "probe_%d.json" % j)
        spawn(base + ["--probe", "--first", str(j), "--result", res], env,
              PROBE_TIMEOUT_S)
        probes.append(read_json(res))

    # one probe before the workload process and the others in pauses of its
    # loop, so that the set-up samples and the loop span the same stretch
    # of time, which on a host whose CPU speed drifts steadies both
    if n_probes:
        probe()
    res = os.path.join(work, "result.json")
    spawn(base + ["--first", "0", "--loop-start", str(1 + n_probes),
                  "--stop", str(n_inputs), "--seconds", repr(args.seconds),
                  "--segments", str(max(n_probes, 1)),
                  "--trace", str(args.trace), "--result", res], env,
          args.seconds + MAIN_TIMEOUT_S, probe)
    main = read_json(res)

    lat = main["latencies_s"]
    if not lat:
        raise SystemExit("perfbench: the timed loop completed no invocation")
    record = provenance(root, src, name, w, args)
    failures = dict(main["failures"])
    failures.update({"probe_%d" % (j + 1): p["failures"]
                     for j, p in enumerate(probes) if p["failures"]})
    attempted = main["attempted"] + len(probes)
    failed = len(failures)
    record.update({"attempted": attempted, "failed": failed,
                   "fail_frac": failed / attempted, "failures": failures,
                   "inputs_generated": n_inputs, "loop_invocations": len(lat)})
    if args.trace:
        metrics = main["per_layer"]
    else:
        tail_s, pct = tail(lat)
        setup = [main["setup_s"]] + [p["setup_s"] for p in probes]
        first = [main["first_result_s"]] + [p["first_result_s"] for p in probes]
        record.update({"first_result_s": statistics.median(first),
                       "latency_p50_s": statistics.median(lat),
                       "ops_per_s": len(lat) / sum(lat),
                       "tail_percentile": pct, "tail_samples": len(lat),
                       "setup_samples": len(setup)})
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "latency_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        }
    os.makedirs(os.path.join(".perfbench_work", "records"), exist_ok=True)
    with open(os.path.join(".perfbench_work", "records", "%s-seed%d-trace%d.json"
                           % (name, args.seed, args.trace)), "w",
              encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=1)
    for key, msgs in failures.items():
        print("perfbench: %s invocation %s failed: %s" % (name, key, "; ".join(msgs)),
              file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}, record


def main():
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mellin_edge", "cli.py")):
        sys.exit("perfbench: %s has no src/mellin_edge; run from the root of "
                 "a mellin-edge checkout" % root)
    compileall.compile_dir(os.path.join(src, "mellin_edge"), quiet=1)

    if args.workload != "all":
        result, record = run_workload(root, src, args.workload, args)
        print(json.dumps({"record": record}, sort_keys=True))
        print(json.dumps(result))
        return
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        result, record = run_workload(root, src, name, args)
        rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
        rows += [(k + " (record)", record[k], u) for k, u in RECORDED.items()
                 if k in record]
        for metric, value, unit in rows:
            print("%-14s %-40s %.6g %s" % (name, metric, value, unit))
        print("%-14s %-40s %d of %d %s" % (name, "failed", result["failed"],
                                          result["attempted"],
                                          sorted(record["failures"])))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({name + "." + k: v
                                 for k, v in result["metrics"].items()})
    print(json.dumps(total))


if __name__ == "__main__":
    main()
