"""Self-tests of the benchmark: smoke runs, the output gate, and the tracer.

Run with ``python3 -m pytest bench/test_bench.py``.  The smoke runs go
through the same code path as a full run, at reduced sizes whose outputs
are frozen under "smoke" in expected.json.
"""

import copy
import json
import signal
import statistics
import sys
import time

import pytest

from harness import (REF_S, ROOT, SAMPLE_EVERY, ScaledClock, load_expected, load_program,
                     measure, run_pass, set_up, workspace)
from tracer import Tracer, TracerError, layer_metrics
from workloads import WORKLOADS, Step, Workload, half_construction, points_text, prints

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def own_torusvc_import():
    """The harness re-imports torusvc; give the other tests their modules back."""
    saved = {k: v for k, v in sys.modules.items() if k == "torusvc" or k.startswith("torusvc.")}
    yield
    for name in [k for k in sys.modules if k == "torusvc" or k.startswith("torusvc.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_passes_gate_and_reports_every_layer(name):
    result = measure(WORKLOADS[name], seed=3, seconds=0, trace=True, size="smoke")
    assert result.problems == []
    assert result.failed == 0 and result.attempted > 0
    assert result.wall_s > 0 and result.setup_s > 0 and result.peak_rss_mb > 0
    declared = {m["name"] for m in SPEC["per_layer"]}
    steps = {k for k in declared if k.startswith(("cli.", "api."))}
    assert declared - steps <= set(result.layers)
    assert result.layers["trace.overhead_s"] == result.layers["trace.wall_s"] - result.wall_s


def test_scaled_clock_divides_by_the_kernel_runs_around_and_inside_the_work():
    clock = ScaledClock()
    value, raw, scaled = clock.time(lambda: sum(range(100000)))
    assert value == 4999950000 and len(clock.refs) == 2
    assert scaled == raw * REF_S / statistics.mean(clock.refs)

    def busy():
        end = time.perf_counter() + 2.5 * SAMPLE_EVERY
        while time.perf_counter() < end:
            pass

    _, raw, scaled = clock.time(busy)
    inside = clock.refs[2:-1]
    assert len(inside) >= 2  # the kernel ran inside the work
    assert raw == pytest.approx(2.5 * SAMPLE_EVERY - sum(inside), abs=0.05)
    assert scaled == raw * REF_S / statistics.mean(clock.refs[1:])
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tampered_digest_fails_the_named_step():
    workload = WORKLOADS["construct"]
    expected = copy.deepcopy(load_expected("smoke", workload, workload.instance(0)))
    expected["certify-lift"]["files"]["cert.txt"] = "0" * 64
    result = measure(workload, seed=0, seconds=0, trace=False, size="smoke", expected=expected)
    assert result.failed == 1 and result.failed / result.attempted > 0
    assert result.problems == [("pass 1", "certify-lift", "files differs from the frozen value")]


def test_same_seed_same_inputs_and_seeds_vary_them():
    workload = WORKLOADS["count-bound"]
    assert workload.build("full", workload.instance(5))[0] == workload.build("full", workload.instance(5))[0]
    assert len({tuple(workload.build("full", i)[0].values()) for i in range(4)}) == 4
    lift = WORKLOADS["construct"]
    assert len({lift.build("full", i)[1][0].argv for i in range(4)}) == 4


def worked_lift():
    """The 6-point worked lift: the n=2 stripe construction through two rows 0123 0123."""
    row = "0 1 2 3 0 1 2 3"
    inputs = {
        "base.txt": points_text(6, half_construction(2)),
        "matrix.txt": f"2 8 4\n{row}\n{row}\n",
    }
    steps = [Step("certify-lift", ("certify-lift", "--points", "base.txt", "--matrix", "matrix.txt",
                                   "--l", "1/2", "-o", "cert.txt"),
                  anchor=prints("certified 64 masks"))]
    return Workload("worked-lift", lambda size, instance: (inputs, steps))


def test_traced_certify_lift_counts_on_worked_lift():
    workload = worked_lift()
    with workspace(workload) as workdir:
        package, steps = set_up(workload, "full", 0, workdir)
        tracer = Tracer()
        tracer.install()
        try:
            _, results = run_pass(package, steps, workdir, ScaledClock(sample_every=None), tracer)
        finally:
            tracer.uninstall()
    assert results[0].stdout == "certified 64 masks\n"
    layers = layer_metrics(tracer)
    assert layers["lifting.cube_witness.calls"] == 128
    assert layers["matching.maximum_matching.calls"] == 128
    assert layers["shatter.covered_mask.calls"] == 64
    assert layers["lifting.witnesses_per_mask"] == 2.0


def test_tracer_wraps_every_binding_site():
    load_program()
    tracer = Tracer()
    tracer.install()
    try:
        sites = tracer.bindings
        assert {"torusvc.torus", "torusvc.shatter", "torusvc.lifting"} <= set(sites["torusvc.torus.arc_contains"])
        assert {"torusvc.extraction", "torusvc.lifting"} <= set(sites["torusvc.matching.maximum_matching"])
        assert {"torusvc.shatter", "torusvc.lifting", "torusvc.cli"} <= set(sites["torusvc.shatter.covered_mask"])
        assert {"torusvc.lifting", "torusvc.cli"} <= set(sites["torusvc.lifting.cube_witness"])
    finally:
        tracer.uninstall()


def test_tracer_refuses_an_unwrapped_original():
    package = load_program()
    original = package.torus.arc_contains
    package.cli.hidden_dispatch = {"contains": original}
    with pytest.raises(TracerError, match="torusvc.torus.arc_contains"):
        Tracer().install()
    # a refused install leaves every binding as it was
    assert package.torus.arc_contains is original
    assert package.shatter.arc_contains is original
