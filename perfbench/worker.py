"""One benchmark process: import the CLI, then drive one subcommand in a
closed loop, one invocation at a time, by calling ``cli.main`` in-process.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  A
``--probe`` process only imports the CLI, makes one invocation and checks
it, to sample set-up and first-result time.  The main process runs the first
input, loops over fresh inputs for ``--seconds`` (pausing between
``--segments`` on a line from run.py), repeats the first input, then
checks every invocation's artifacts and writes ``result.json``.
Clocks are CLOCK_MONOTONIC, which is shared with the parent process, so
time since spawn can be measured across the process boundary.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time


PAUSE = "perfbench-pause"


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def in_dir(work, i):
    return os.path.join(work, "in", "%04d" % i)


def out_dir(work, i):
    return os.path.join(work, "out", "%04d" % i)


def invoke(cli, subcommand, in_path, out_path):
    """One CLI call; returns (exit code or exception name, seconds)."""
    argv = [subcommand, "--config", os.path.join(in_path, "config.json"),
            "--out", out_path]
    t0 = now()
    try:
        status = cli.main(argv)
    except Exception as e:        # an untyped error is a failed invocation
        status = type(e).__name__
    return status, now() - t0


def digests(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def artifact_bytes(path):
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


def import_cli():
    t0 = now()
    import mellin_edge.cli as cli
    setup = now() - t0
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit("mellin_edge imported from %s, not %s"
                         % (cli.__file__, src))
    return cli, setup


def check(args, workloads, status, i):
    """Failure messages of invocation i (empty when it is correct)."""
    if status != 0:
        return ["%s.exit: status %s" % (args.workload, status)]
    return workloads.check(args.workload, in_dir(args.work, i),
                           out_dir(args.work, i), i)


def probe(args, workloads):
    cli, setup = import_cli()
    sub = workloads.WORKLOADS[args.workload].subcommand
    status, _ = invoke(cli, sub, in_dir(args.work, args.first),
                       out_dir(args.work, args.first))
    first_result = now() - args.spawned_at
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup, "first_result_s": first_result,
                   "failures": check(args, workloads, status, args.first)}, fh)


def main_run(args, workloads):
    cli, setup = import_cli()
    work = workloads.WORKLOADS[args.workload]
    statuses = {}
    first = args.first
    statuses[first], _ = invoke(cli, work.subcommand, in_dir(args.work, first),
                                out_dir(args.work, first))
    first_result = now() - args.spawned_at

    # the loop runs for args.seconds of its own time, in args.segments
    # parts; between parts it pauses while run.py runs a set-up probe
    tracer = None
    lat, traced_lat, walls, sizes = [], [], {}, {}
    trace_from = args.seconds / 3.0 if args.trace else args.seconds
    used = 0.0
    i = args.loop_start
    for seg in range(args.segments):
        seg_start = now() - used
        seg_end = args.seconds * (seg + 1) / args.segments
        while i < args.stop and now() - seg_start < seg_end:
            if args.trace and tracer is None and now() - seg_start >= trace_from:
                from tracer import Tracer
                tracer = Tracer(clock=now)
                tracer.install()
            if tracer is not None:
                tracer.invocation = i
            o = out_dir(args.work, i)
            statuses[i], dt = invoke(cli, work.subcommand, in_dir(args.work, i), o)
            if tracer is None:
                lat.append(dt)
            else:
                traced_lat.append(dt)
                walls[i] = dt
                sizes[i] = artifact_bytes(o) if os.path.isdir(o) else 0
            for name in os.listdir(o) if os.path.isdir(o) else ():
                if name not in work.keep:
                    os.remove(os.path.join(o, name))
            i += 1
        used = now() - seg_start
        if seg + 1 < args.segments:
            print(PAUSE, flush=True)
            sys.stdin.readline()
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the last invocation repeats the first input; artifacts must match
    rep = os.path.join(args.work, "out", "repeat")
    status, _ = invoke(cli, work.subcommand, in_dir(args.work, first), rep)
    failures = {}
    if status != 0:
        failures["repeat"] = ["determinism.exit: status %s" % status]
    elif digests(rep) != digests(out_dir(args.work, first)):
        failures["repeat"] = ["determinism.bytes: artifacts of the repeated "
                              "first input differ from the first run's"]

    for j in sorted(statuses):
        msgs = check(args, workloads, statuses[j], j)
        if msgs:
            failures[str(j)] = msgs

    result = {"setup_s": setup, "first_result_s": first_result,
              "latencies_s": lat, "peak_rss_mb": peak_rss_mb,
              "attempted": len(statuses) + 1, "failures": failures}
    if tracer is not None:
        from tracer import layer_metrics
        overhead = (statistics.median(traced_lat) - statistics.median(lat)
                    if lat and traced_lat else 0.0)
        result["per_layer"] = layer_metrics(tracer.spans, walls, sizes, overhead)
        with open(os.path.join(args.work, "spans.jsonl"), "w",
                  encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent,
                                     s.invocation,
                                     None if s.error is None
                                     else type(s.error).__name__]) + "\n")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--first", type=int, required=True)
    ap.add_argument("--loop-start", type=int, default=0)
    ap.add_argument("--stop", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--segments", type=int, default=1)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    import workloads
    if args.probe:
        probe(args, workloads)
    else:
        main_run(args, workloads)


if __name__ == "__main__":
    main()
