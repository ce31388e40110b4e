"""The benchmark's tracer (``perfbench/tracing.py``) still finds every
program name it hooks.

The tracer wraps layers by name: ``drive_fleet``, every ``run_pair``,
``run_implementation`` and ``make_machine``, ``capture`` and the replay
methods, and it replaces
``repro.serve.engine.compute_batch`` with a wrapper of the shape
``(requests, fleet)``.  Deleting or reshaping one of those names breaks
``perfbench/run.py --trace 1`` without failing any other test, so this
suite installs the tracer in a fresh interpreter, runs a ``wfa-vec`` and
an ``ss-vec`` short-read pair plus one serve batch, and requires the
same outputs and cycles as an untraced run, with time recorded in the
``align``, ``machine`` and ``replay`` layers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json, sys

tracer = None
if sys.argv[1] == "traced":
    import tracing

    tracer = tracing.Tracer()
    tracing.install_serve(tracer, sys.argv[2])

import repro.eval.runner as runner
import repro.serve.engine as engine
from repro.genomics.datasets import build_dataset
from repro.serve.protocol import AlignRequest

pairs = build_dataset("100bp_1", 2, seed=1234).pairs
requests = [
    AlignRequest(
        id=f"r{i}", tenant="t", impl=impl,
        pattern=str(pair.pattern), text=str(pair.text),
    )
    for impl in ("wfa-vec", "ss-vec")
    for i, pair in enumerate(pairs)
]
out = {"pairs": []}
for request in requests:
    m = runner.make_machine(request.system())
    result = runner.run_implementation(
        request.make_impl(), [request.make_pair()], machine=m
    )
    out["pairs"].append([result.cycles, repr(result.outputs)])
batch = engine.compute_batch(requests[:2], None)
out["batch"] = [[r.cycles, repr(r.output)] for r in batch]
if tracer is not None:
    out["totals_s"] = tracer.totals_s()
print(json.dumps(out))
"""


def run(mode, tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(tmp_path / f"cache-{mode}")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode, str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tracer-hooks")
    return run("plain", tmp), run("traced", tmp)


def test_traced_results_equal_untraced(runs):
    plain, traced = runs
    assert len(plain["pairs"]) == 4 and len(plain["batch"]) == 2
    assert traced["pairs"] == plain["pairs"]
    assert traced["batch"] == plain["batch"]


@pytest.mark.parametrize("layer", ("align", "machine", "replay"))
def test_traced_layer_records_time(runs, layer):
    _plain, traced = runs
    assert traced["totals_s"].get(layer, 0.0) > 0.0
