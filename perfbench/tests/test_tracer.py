"""Tests of the benchmark's tracer and harness, on the reduced (--small) sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import GOLDEN_SEEDS, WORKLOADS  # noqa: E402

COUNT_UNITS = ("count", "degree", "share")
HEADLINE = {
    "identities": "smash.smash_bracket.s",
    "localized": "localize.act.s",
    "modules": "modules.validate.s",
}


def _quiet(*_args, **_kwargs):
    pass


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    """Two traced runs of every workload at the small sizes."""
    out = {}
    for workload in WORKLOADS:
        runs = []
        for k in range(2):
            work = tmp_path_factory.mktemp(f"{workload}{k}")
            runs.append(run.trace(workload, GOLDEN_SEEDS, random.Random(k), work,
                                  golden=None, small=True, log=_quiet))
        out[workload] = runs
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_reports_equal_untraced(traced_twice, workload):
    for _, tally, hashes in traced_twice[workload]:
        assert tally.failed == 0
        for seed in GOLDEN_SEEDS:
            plain, traced = hashes[(seed, "plain")], hashes[(seed, "traced")]
            assert plain and plain == traced


@pytest.mark.parametrize("workload", WORKLOADS)
def test_count_metrics_repeat_exactly(traced_twice, workload):
    (first, _, _), (second, _, _) = traced_twice[workload]
    units = run.per_layer_units()
    counts = [m for m, unit in units.items() if unit in COUNT_UNITS]
    assert counts
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_headline_span_is_nonzero(traced_twice, workload):
    for metrics, _, _ in traced_twice[workload]:
        assert set(metrics) == set(run.per_layer_units())
        assert metrics[HEADLINE[workload]] > 0


def test_self_time_and_recursion():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def outer(depth):
        leaf()
        if depth:
            outer(depth - 1)

    leaf = tracer.wrap(leaf, "leaf")
    outer = tracer.wrap(outer, "outer")
    outer(1)
    spans = tracer.summary()["spans"]
    assert spans["outer"]["calls"] == 2 and spans["leaf"]["calls"] == 2
    # the recursive call lies inside the outer span: counted once inclusively
    assert spans["outer"]["s"] >= spans["leaf"]["s"] > 0.004
    assert spans["outer"]["self_s"] == pytest.approx(spans["outer"]["s"] - spans["leaf"]["s"],
                                                     abs=1e-6)


def test_wrapping_reaches_rebound_names():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import tracer; tracer.install(tracer.Tracer());"
        "import smashmod.suites as s, smashmod.modules as m, smashmod.localize as l;"
        "import smashmod.smash as sm, smashmod.poly as p, smashmod.cli as c;"
        "names = [s.omega, s.omega_multi, s.smash_bracket, m.omega, m.omega_multi,"
        " sm.omega, c.oracle_order, c.min_annihilating_order, c.run_suite,"
        " p.Poly.__mul__, p.Poly.__rmul__, s.verify_localized];"
        "assert all(hasattr(f, '__wrapped__') for f in names), names;"
        "assert p.Poly.__rmul__ is p.Poly.__mul__"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe, str(HERE)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_metric_names_match_benchmark_json():
    from smashmod.localize import LOCALIZED_CHECK_IDS
    from smashmod.smash import IDENTITY_IDS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.WORKLOAD_RUN_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert run.IDENTITY_IDS == IDENTITY_IDS
    assert run.LOCALIZED_CHECK_IDS == LOCALIZED_CHECK_IDS


def test_golden_covers_every_command(tmp_path):
    golden = run.load_golden()
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, str(HERE / "workloads.py"), workload,
                               str(tmp_path / workload)],
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60)
        assert done.returncode == 0
        commands = json.loads((tmp_path / workload / "commands.json").read_text())
        for cmd in commands:
            assert cmd["label"] in golden[workload][str(cmd["seed"])]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "identities",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
