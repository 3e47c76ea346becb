"""The exact artifacts of ``normalize --out`` on the benchmark's problems
are byte-identical to the references recorded in ``perfbench/reference/``."""

import importlib.util
import sys
from pathlib import Path

import pytest

from resnf.cli import EXIT_OK, run

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not WORKLOADS.is_file(), reason="perfbench/ is absent")
@pytest.mark.parametrize("name", ["nls-normalize", "dim6-verify"])
def test_normalize_artifacts_match_references(tmp_path, capsys, name):
    workloads = _load_workloads()
    workload = workloads.WORKLOADS[name]
    workloads.write_problems(workload, 1, tmp_path)
    ops = [op for op in workload.operations(tmp_path) if op.argv[0] == "normalize"]
    assert ops
    for op in ops:
        assert run(list(op.argv)) == EXIT_OK
        assert op.check() == []
    capsys.readouterr()
