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
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


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


def test_every_cli_name_the_tracer_wraps_is_called(tracer, tmp_path):
    # the tracer wraps cli's globals; a command that calls a function by
    # another name leaves its wrapper unused, and the traced run's numbers
    # for that layer read 0. validate_params is the exception: no command
    # calls it through cli (Params runs the check, traced as model_core's).
    from seirs_delay import cli

    golden = sorted(GOLDEN.glob("*.cfg"))
    assert len(golden) == 9
    t = tracer.Tracer()
    t.install()
    try:
        for cfg in golden:
            expected = cfg.with_suffix(".report.txt").read_text()
            command = expected.partition("\n")[0].removeprefix("command = ")
            out = tmp_path / f"{cfg.stem}.txt"
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
            assert out.read_text() == expected
    finally:
        t.uninstall()
    called = {span[0] for span in t.spans}
    wrapped = {name for module, attr, name in tracer.TARGETS
               if module == "seirs_delay.cli" and attr != "validate_params"}
    assert len(wrapped) == 13
    assert wrapped - called == set()


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
