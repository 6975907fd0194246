"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file is named so that the repository's own test run does not collect
it: the count checks below pin the call structure of today's program,
which later optimisations are expected to change.
"""

import filecmp
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def _span(sid, name, start, end, parent=-1, inv=0):
    return tr.Span(sid, name, name.split(".")[0], start, end, parent, inv,
                   None, None)


def test_self_time_of_nested_spans():
    # cli.main [0,10] -> op_mellin [1,9] -> mellin_transform [2,4] and
    # locate_poles [6,7]; the invocation's wall time is 10.5
    spans = [_span(0, "cli.main", 0.0, 10.0),
             _span(1, "mellin.op_mellin", 1.0, 9.0, 0),
             _span(2, "mellin.mellin_transform", 2.0, 4.0, 1),
             _span(3, "symbols.locate_poles", 6.0, 7.0, 1)]
    assert tr.self_times(spans) == [2.0, 5.0, 2.0, 1.0]
    m = tr.layer_metrics(spans, {0: 10.5}, {0: 7}, 0.25)
    assert m["mellin.op_mellin.self_s"]["value"] == 5.0
    assert m["mellin.op_mellin.calls"]["value"] == 1
    assert m["mellin.self_s"]["value"] == 7.0
    assert m["symbols.self_s"]["value"] == 1.0
    assert m["cli.self_s"]["value"] == 2.0
    assert m["cli.share"]["value"] == 2.0 / 10.5
    assert m["trace.unattributed_s"]["value"] == 0.5
    assert m["trace.overhead_s"]["value"] == 0.25
    assert m["cli.artifact_bytes"]["value"] == 7
    assert m["cone.self_s"]["value"] == 0.0


def test_overlapping_children_are_covered_once():
    spans = [_span(0, "cli.main", 0.0, 10.0),
             _span(1, "mellin.op_mellin", 1.0, 4.0, 0),
             _span(2, "mellin.op_mellin", 3.0, 6.0, 0)]
    assert tr.self_times(spans) == [5.0, 3.0, 3.0]


def test_wrapped_calls_record_parent_and_errors():
    ticks = iter(range(100))
    t = tr.Tracer(clock=lambda: float(next(ticks)))
    t._error_type = KeyError
    inner = t.wrap("mellin", "mellin_transform", lambda: {}["missing"])

    def outer_fn():
        return inner()

    outer = t.wrap("mellin", "op_mellin", outer_fn)
    t.invocation = 3
    with pytest.raises(KeyError):
        outer()
    child, parent = t.spans[1], t.spans[0]
    assert child.parent == parent.sid == 0 and child.invocation == 3
    m = tr.layer_metrics(t.spans, {3: 10.0}, {3: 0}, 0.0)
    assert m["mellin.errors"]["value"] == 1       # counted once per layer
    assert tr.self_times(t.spans) == [2.0, 1.0]


def test_install_wraps_every_binding_and_uninstall_restores():
    import mellin_edge.cli as cli
    from mellin_edge import cone, edge_ops, mellin

    orig = mellin.op_mellin
    t = tr.Tracer()
    t.install()
    try:
        assert mellin.op_mellin is not orig
        assert edge_ops.op_mellin is mellin.op_mellin is cone.op_mellin
        assert cli.COMMANDS["solve"] is cli.cmd_solve
        assert cli.cmd_solve.__wrapped__ is not None
    finally:
        t.uninstall()
    assert mellin.op_mellin is orig and edge_ops.op_mellin is orig
    assert not hasattr(cli.COMMANDS["solve"], "__wrapped__")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    cwd = os.getcwd()
    os.chdir(tmp_path)             # configs name their field files by path
    try:
        for seed, keep in ((7, a), (7, b), (8, c)):
            workloads.generate(name, seed, 5, "in")
            os.rename("in", keep)
    finally:
        os.chdir(cwd)
    files = sorted(os.listdir(a))
    match, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
    assert mismatch == errors == [] and match == files
    assert (a / "spec.json").read_bytes() != (c / "spec.json").read_bytes()


def _invoke(name, tmp_path):
    import mellin_edge.cli as cli

    os.chdir(tmp_path)
    workloads.generate(name, 11, 0, "in")
    t = tr.Tracer()
    t.install()
    t.invocation = 0
    try:
        rc = cli.main([workloads.WORKLOADS[name].subcommand,
                       "--config", "in/config.json", "--out", "out"])
    finally:
        t.uninstall()
    assert rc == 0
    return t


@pytest.fixture
def in_tmp(tmp_path):
    cwd = os.getcwd()
    yield tmp_path
    os.chdir(cwd)


def test_perturbed_coefficient_is_a_failure(in_tmp):
    _invoke("cone_solve", in_tmp)
    assert workloads.check("cone_solve", "in", "out", 0) == []
    path = in_tmp / "out" / "coefficients.csv"
    lines = path.read_text().splitlines()
    cols = lines[1].split(",")
    cols[4] = repr(float(cols[4]) * (1 + 1e-6))      # re_c of the first row
    lines[1] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")
    fails = workloads.check("cone_solve", "in", "out", 0)
    assert len(fails) == 1 and fails[0].startswith("cone_solve.coefficients")


@pytest.mark.parametrize("name,metric,count", [
    ("edge_apply", "mellin.op_mellin.calls", 256),
    ("cone_solve", "cone.solve.calls", 18),
])
def test_counts_on_real_invocations(name, metric, count, in_tmp):
    t = _invoke(name, in_tmp)
    wall = t.spans[0].end - t.spans[0].start
    m = tr.layer_metrics(t.spans, {0: wall}, {0: 1}, 0.0)
    assert m[metric]["value"] == count
    assert workloads.check(name, "in", "out", 0) == []
    shares = sum(m[layer + ".share"]["value"] for layer in tr.LAYERS)
    assert shares == pytest.approx(1.0, abs=1e-9)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tr.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_prints_a_checked_result_line():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "poles_track", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    last = json.loads(out.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(k, v["unit"]) for k, v in last["metrics"].items()] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]]
    record = json.loads(out.stdout.splitlines()[-2])["record"]
    assert record["nproc"] >= 1 and record["seed"] == 1
    assert record["latency_p50_s"] > 0 and record["fail_frac"] == 0.0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "edge_apply", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
