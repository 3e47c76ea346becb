"""The per-layer tracer in ``perfbench/`` wraps resnf entry points by
name; every name it lists must stay bound where it looks for it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not LAYERTRACE.is_file(), reason="perfbench/ is absent")
def test_every_traced_name_resolves():
    targets = _load_layertrace().TARGETS
    missing = []
    for layer, attr, *_ in targets:
        # the same lookup as layertrace.traced()
        module = importlib.import_module("resnf." + layer)
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or member not in vars(owner):
            missing.append("%s.%s" % (layer, attr))
    assert targets
    assert missing == []
