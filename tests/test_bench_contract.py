"""The benchmark's traced replay patches globals of ``hydrolora.orchestrator``.

``perfbench/replay.py`` replaces each name in its ``SPANS`` table, plus
``place`` and ``simulate``, with a span-timing wrapper.  A wrapper only sees
the calls the orchestrator makes through that module global, so every such
name must stay a callable global that the orchestrator's code reads.
"""

import dis
import importlib.util
import types
from pathlib import Path

import hydrolora.orchestrator as orchestrator

REPLAY = Path(__file__).resolve().parent.parent / "perfbench" / "replay.py"


def globals_loaded(code: types.CodeType) -> set[str]:
    """Names that ``code`` or any code nested in it loads as globals."""
    names = {ins.argval for ins in dis.get_instructions(code) if ins.opname == "LOAD_GLOBAL"}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= globals_loaded(const)
    return names


def test_replay_patches_callable_orchestrator_globals():
    spec = importlib.util.spec_from_file_location("perfbench_replay", REPLAY)
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    patched = set(replay.SPANS) | {"place", "simulate"}
    source = Path(orchestrator.__file__).read_text(encoding="utf-8")
    loaded = globals_loaded(compile(source, orchestrator.__file__, "exec"))
    for name in sorted(patched):
        assert callable(vars(orchestrator).get(name)), name
        assert name in loaded, name
