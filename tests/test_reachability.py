"""Which functions of ``resnf`` a fixed command-line ladder never enters.

The ladder runs ``cli.run`` in process under ``sys.setprofile``: the dim6,
nls and hyperbolic builders and a custom-model problem, each in both
arithmetic lanes, through ``analyze``, ``normalize``, ``verify`` and
``diophantine``, then the bad inputs of ``test_cli.py`` (its loader
rejections, less the window cases that it runs in a child process, and its
malformed term lines).  Every ``def`` under ``src/resnf/`` that no command
enters must be named in ``unreached.txt`` with one reason:

- ``criterion``: an acceptance criterion's subject, which
  ``test_acceptance.py`` names, or what the subject in the note needs;
- ``api``: library API that no command path calls;
- ``pinned``: ``perfbench/layertrace.py`` wraps it, or it serves the
  wrapped target that the note names;
- ``error-path``: raised or taken only on a failure the ladder does not
  provoke.

The test fails on a function that is never entered and has no entry, and
on an entry whose function is now entered or gone: code that loses its
last caller shows up here, and so does code that gains one.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import re
import sys
from pathlib import Path

import pytest

import resnf
from resnf import cli
from resnf.cli import EXIT_INPUT, EXIT_OK, run
import test_cli
from test_cli import (
    DIAGONAL_LINES,
    LOADER_REJECTIONS,
    custom_doc,
    dim6_doc,
    edited_doc,
    hyperbolic_doc,
    nls_doc,
)

SRC = Path(resnf.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
LEDGER = TESTS / "unreached.txt"
LAYERTRACE = TESTS.parent / "perfbench" / "layertrace.py"
REASONS = {"criterion", "api", "pinned", "error-path"}

# ``co_qualname``, which names a method by its class, is new in Python 3.11
pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code.co_qualname")


def name_of(code) -> str:
    return "%s:%s" % (Path(code.co_filename).stem, code.co_qualname)


def defined() -> set[str]:
    """Every ``def`` in the package's source, comprehensions and lambdas
    left out, by ``<module>:<qualname>``."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while todo:
            for const in todo.pop().co_consts:
                if inspect.iscode(const):
                    todo.append(const)
                    if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                        names.add(name_of(const))
    return names


def ledger() -> dict[str, tuple[str, str]]:
    """``name -> (reason, note)`` from ``unreached.txt``."""
    entries = {}
    for line in LEDGER.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, reason, *note = line.split()
            assert name not in entries, "listed twice: %s" % name
            entries[name] = (reason, " ".join(note))
    return entries


def ladder(root: Path) -> list[tuple[list[str], int]]:
    """``(argv, expected exit code)`` of every command of the ladder."""

    def write(name, doc):
        path = root / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        return str(path)

    dim6 = dim6_doc(field={"seed": 3})
    dim6["truncation"]["degree_cutoff"] = 5
    problems = {"dim6": dim6, "nls": nls_doc(), "hyperbolic": hyperbolic_doc(), "custom": custom_doc()}
    runs = []
    for name, doc in problems.items():
        doc["flow"] = {"steps": 32}
        for lane in ("exact", "float"):
            doc["truncation"]["arithmetic"] = lane
            path = write("%s-%s.json" % (name, lane), doc)
            out = str(root / ("%s-%s" % (name, lane)))
            runs += [
                (["analyze", path, "--json", out + "-analyze.json"], EXIT_OK),
                (["normalize", path, "--out", out, "--json", out + "-normalize.json"], EXIT_OK),
                (["verify", path, "--transform", out, "--json", out + "-verify.json"], EXIT_OK),
                (["diophantine", path, "--tau", "2", "--degree", "3"], EXIT_OK),
            ]
    for name, base, edits, argv, _ in LOADER_REJECTIONS:
        if name.startswith("window-"):
            continue
        if base is not None:
            path = write("bad-%s.json" % name, edited_doc(base, edits))
        else:
            path = write("bad-%s.json" % name, edits) if edits is not None else str(root / "absent.json")
        runs.append((["analyze", path, *argv], EXIT_INPUT))
    for name, (line, _) in test_cli.TestMalformedTokens.BAD_LINES.items():
        doc = dim6_doc(field={"terms": DIAGONAL_LINES + [line]})
        runs.append((["analyze", write("token-%s.json" % name, doc)], EXIT_INPUT))
    return runs


def entered_by_ladder(root: Path) -> set[str]:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    runs = ladder(root)
    codes = []
    cli._parser.cache_clear()  # a process builds its parser once: start as a fresh one
    previous = sys.getprofile()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            codes = [run(argv) for argv, _ in runs]
        finally:
            sys.setprofile(previous)
    assert codes == [code for _, code in runs], [argv for (argv, want), got in zip(runs, codes) if got != want]
    return {name_of(code) for code in entered if Path(code.co_filename).parent == SRC}


def pinned_targets() -> set[str]:
    """The functions ``perfbench/layertrace.py`` wraps, by name here and by
    its ``<layer>.<attr>``."""
    spec = importlib.util.spec_from_file_location("_layertrace", LAYERTRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    names = set()
    for layer, attr, *_ in trace.TARGETS:
        obj = importlib.import_module("resnf." + layer)
        for part in attr.split("."):
            obj = getattr(obj, part)
        names |= {name_of(inspect.unwrap(obj).__code__), "%s.%s" % (layer, attr)}
    return names


def test_unreached_functions_match_the_ledger(tmp_path):
    unreached = defined() - entered_by_ladder(tmp_path)
    entries = ledger()
    assert sorted(unreached - set(entries)) == [], "never entered and not in unreached.txt"
    assert sorted(set(entries) - unreached) == [], "in unreached.txt but entered, or gone"
    assert {name: reason for name, (reason, _) in entries.items() if reason not in REASONS} == {}


def test_ledger_reasons_hold():
    entries = ledger()
    acceptance = (TESTS / "test_acceptance.py").read_text(encoding="utf-8")
    named = set(re.findall(r"\w+", acceptance))
    criteria = {name: note for name, (reason, note) in entries.items() if reason == "criterion"}
    # the function's own name, or the criterion subject's in the note
    unnamed = {name: note for name, note in criteria.items() if not {re.split(r"[:.]", name)[-1], note} & named}
    assert criteria and unnamed == {}
    if not LAYERTRACE.is_file():
        pytest.skip("perfbench/ is absent")
    targets = pinned_targets()
    pinned = {name: note for name, (reason, note) in entries.items() if reason == "pinned"}
    unpinned = {name: note for name, note in pinned.items() if name not in targets and note not in targets}
    assert pinned and unpinned == {}
