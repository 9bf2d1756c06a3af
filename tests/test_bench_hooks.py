"""The benchmark's traced rounds still find the hooks they wrap.

perfbench/tracing.py patches ctlenum entry points by name (among them
CompiledModel.closure, CompiledModel.reach and enumeration.label_masks,
and on the enum workloads' output path CompiledModel.submodel and
canonical_serialize); a renamed or bypassed hook shows up here as a
crashed round or a layer that counts nothing.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["enum-chain", "enum-general", "exists-reductions"])
def test_traced_round(workload, tmp_path):
    result_path = tmp_path / "round.json"
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src"))
    command = [
        sys.executable,
        os.path.join(ROOT, "perfbench", "worker.py"),
        "--workload", workload,
        "--seed", "5",
        "--trace", "1",
        "--workdir", str(tmp_path),
        "--result", str(result_path),
    ]
    if workload == "enum-general":
        # only a run's first round writes the brute-force reference that
        # the general round's output check reads
        command.append("--first")
    subprocess.run(command, env=env, cwd=ROOT, check=True, timeout=300)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert result["traced"]
    assert result["attempted"] > 0
    assert result["failed"] == 0
    for layer in ("kripke.reach", "kripke.closure", "modelcheck.label"):
        assert result["layers"][f"{layer}.calls"] > 0, layer
    if workload == "enum-chain":
        # labeling takes pre-images from per-model maps: no successor
        # table per closure
        assert result["layers"]["kripke.successor_masks.calls"] == 0
    if workload.startswith("enum-"):
        # the output path: building each solution and writing its line
        assert result["layers"]["kripke.submodel.ms"] > 0
        assert result["layers"]["kripke.serialize.ms"] > 0
