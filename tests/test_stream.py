"""The single path's noise stream against numpy's, bit for bit, and the
provenance of its ziggurat tables.

_stream.Stream(master, i) steps replica i's PCG64 and numpy's ziggurat in
Python integers; its draws must be the very floats of
Generator(PCG64(SeedSequence(master, spawn_key=(i,)))).normal(0.0, sd, n),
however they are split into calls.
"""
import importlib.util
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from seirs_delay import _stream

TOOL = (pathlib.Path(__file__).resolve().parent.parent / "tools"
        / "ziggurat_tables.py")
MASTERS = [0, 77, 2**32, 2**64 - 1, 2**150 + 7]
REPLICAS = [0, 1, 2**32 + 5]
# one call of each size in turn: the state carries over between calls of
# any size, as between a path's 128-step chunks and a window's short last
# chunk
SPLITS = (1, 127, 128, 513)


def reference(master, replica, sd, n):
    seq = np.random.SeedSequence(master, spawn_key=(replica,))
    return np.random.Generator(np.random.PCG64(seq)).normal(0.0, sd, n)


def drawn(stream, sd, sizes):
    out = []
    for size in sizes:
        chunk = stream.normals(sd, size)
        assert len(chunk) == size
        out += chunk
    return np.array(out)


@pytest.mark.parametrize("replica", REPLICAS)
@pytest.mark.parametrize("master", MASTERS)
def test_draws_are_numpys_normal_bit_for_bit(master, replica):
    for sd in (math.sqrt(0.01), 0.3):
        got = drawn(_stream.Stream(master, replica), sd, SPLITS)
        want = reference(master, replica, sd, sum(SPLITS))
        assert got.tobytes() == want.tobytes(), sd


def test_a_long_stream_takes_the_tail_and_the_wedge(monkeypatch):
    # about 1.5 % of draws fall outside their layer's rectangle: in layer 0
    # they go to the tail beyond r, else to the wedge test, whose rejections
    # draw again
    taken = {"tail": 0, "wedge": 0}
    rejected = _stream._rejected

    def counted(state, inc, r, x):
        taken["tail" if r & 0xFF == 0 else "wedge"] += 1
        return rejected(state, inc, r, x)
    monkeypatch.setattr(_stream, "_rejected", counted)
    n, sd = 200_000, math.sqrt(0.01)
    got = drawn(_stream.Stream(2020, 0), sd, (n,))
    assert got.tobytes() == reference(2020, 0, sd, n).tobytes()
    assert taken["tail"] > 10 and taken["wedge"] > 1000, taken


def _tool():
    spec = importlib.util.spec_from_file_location("ziggurat_tables", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tables_are_the_installed_numpys(monkeypatch):
    tool = _tool()
    if not tool.archive().is_file():
        pytest.skip(f"numpy installed no {tool.archive()}")
    out = subprocess.run([sys.executable, str(TOOL), "--check"],
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "", "")
    # the printed constant is the module's, and a changed entry fails the
    # check
    printed = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                             text=True, timeout=60, check=True).stdout
    namespace = {}
    exec(printed, namespace)
    assert namespace["_ZIGGURAT"] == _stream._ZIGGURAT
    flipped = _stream._ZIGGURAT[:-1] + ("0" if _stream._ZIGGURAT[-1] != "0"
                                        else "1")
    monkeypatch.setattr(_stream, "_ZIGGURAT", flipped)
    # main puts src/ on the path; the test's own path comes back after it
    monkeypatch.setattr(sys, "path", sys.path[:])
    assert tool.main(["--check"]) == 1
