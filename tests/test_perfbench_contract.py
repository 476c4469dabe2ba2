"""The names perfbench/tracer.py wraps from outside the package.

The benchmark's tracer replaces public functions at the module attribute
their callers look them up by, and reads the kernels' step counts from a
fixed argument position. Renaming or dropping one of those names, or
reordering a kernel's arguments, breaks the traced benchmark run without
failing any other test; these checks catch that here.
"""
import inspect
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer as module
        yield module
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_name_installs_and_uninstalls(tracer):
    from seirs_delay import cli

    original = cli.run
    t = tracer.Tracer()
    try:
        t.install()
        assert cli.run is not original
    finally:
        t.uninstall()
    assert cli.run is original


def test_step_arguments_are_the_kernels_n_steps(tracer):
    from seirs_delay import _kernels

    for name, index in tracer.STEP_ARG.items():
        fn = getattr(_kernels, name.split(".", 1)[1])
        params = list(inspect.signature(fn).parameters)
        assert params[index] == "n_steps", name


def test_kernel_path_flag_that_run_reads():
    # perfbench/run.py imports seirs_delay._accel and labels its timings by
    # NUMBA_ENABLED; nothing else in the package reads the stub
    from seirs_delay import _accel

    assert _accel.NUMBA_ENABLED is False
