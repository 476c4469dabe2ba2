"""Run the goldens under each given Python interpreter, byte for byte.

    python tools/interpreters.py <python> [<python> ...]

For each interpreter, runs `<python> -m seirs_delay` with src/ as its
PYTHONPATH on the eight goldens that need no numpy (equilibria, stability,
both delay-margin, lyapunov, both simulate and simulate-sde) and compares
each report with its golden byte for byte. It also runs `simulate` from a
disease-free start, whose minimum is a zero, and a delayed `simulate` and
a delayed `simulate-sde` over 1025 steps, which stream their paths to
run.trajectory in three windows, and both commands again with a delay of
600 steps, longer than a window, so that the delay ring wraps across
windows; it compares their reports, and the streamed runs' CSVs, with the
bytes this script's own interpreter writes in process; and it checks that
--version prints the package version and that an unknown command exits 2.
Where the interpreter can import numpy, the concentration golden runs too.
An interpreter that cannot start is reported as skipped. It is a check:
the exit code is 1 on any mismatch and 0 when there is none.
"""
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(SRC))

from seirs_delay import __version__, cli  # noqa: E402

# the command of each golden config
GOLDENS = {"equilibria": "equilibria", "stability": "stability",
           "delay-margin": "delay-margin",
           "delay-margin-coexistence": "delay-margin", "lyapunov": "lyapunov",
           "simulate": "simulate", "simulate-ode": "simulate",
           "simulate-sde": "simulate-sde"}
NUMPY_GOLDENS = {"concentration": "concentration"}
# s0 = 1: E, I and R stay +0.0, so the report's min_component is a zero
DISEASE_FREE = ("params.beta = 0.1\nparams.mu = 0.2\nparams.gamma = 0.3\n"
                "params.k_r = 2.0\nrun.horizon = 10.0\ninit.s0 = 1.0\n"
                "init.e0 = 0.0\ninit.i0 = 0.0\ninit.r0 = 0.0\n")
# r = 0.5 over 1025 steps of 0.01: two whole 512-step windows and one step
STREAMED = ("params.beta = 0.4\nparams.mu = 0.2\nparams.gamma = 0.1\n"
            "params.k_r = 2.0\nparams.r = 0.5\nrun.horizon = 10.25\n"
            "run.step = 0.01\n")
# the same grid with noise: replica 0 of seed 7 at eps = 0.1
NOISE = "params.epsilon = 0.1\nensemble.seed = 7\n"
STREAMED_SDE = STREAMED + NOISE
# r = 6 over 1100 steps of 0.01 (k_r >= r*e): the 601-slot ring outlasts
# a 512-step window and wraps inside the second
LONG_DELAY = ("params.beta = 0.4\nparams.mu = 0.2\nparams.gamma = 0.1\n"
              "params.k_r = 20.0\nparams.r = 6.0\nrun.horizon = 11.0\n"
              "run.step = 0.01\n")
# the children see src/ and nothing of this interpreter's path, and write
# no bytecode into src/
ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}


def run(python: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([python, *args], capture_output=True, env=ENV,
                          cwd=ROOT, timeout=300)


def check(python: str, local: dict) -> int:
    """Print one line per check of python; return the number of mismatches,
    or 0 when python cannot start. local maps the name of each in-process
    run to its command, config path and report bytes, and the path and
    bytes of its trajectory (None when it writes none)."""
    try:
        probe = run(python, "-c", "import sys; print(sys.version.split()[0])")
    except OSError as exc:
        print(f"{python}: skipped, cannot start: {exc}")
        return 0
    if probe.returncode != 0:
        first = probe.stderr.decode(errors="replace").strip().split("\n")[0]
        print(f"{python}: skipped, cannot start: exit {probe.returncode}: "
              f"{first}")
        return 0
    version = probe.stdout.decode().strip()
    goldens = dict(GOLDENS)
    if run(python, "-c", "import numpy").returncode == 0:
        goldens.update(NUMPY_GOLDENS)
    else:
        print(f"{python} ({version}): no numpy, "
              f"{' and '.join(NUMPY_GOLDENS)} left out")
    checks = [(f"golden {name}", ["-m", "seirs_delay", command, "--config",
                                  str(GOLDEN / f"{name}.cfg")],
               0, (GOLDEN / f"{name}.report.txt").read_bytes())
              for name, command in goldens.items()]
    checks += [(name, ["-m", "seirs_delay", command, "--config", path], 0,
                report) for name, (command, path, report, _) in local.items()]
    checks += [("--version", ["-m", "seirs_delay", "--version"], 0,
                f"{__version__}\n".encode()),
               ("unknown command", ["-m", "seirs_delay", "bogus", "--config",
                                    str(GOLDEN / "equilibria.cfg")], 2, b"")]
    mismatches = 0
    for what, args, code, stdout in checks:
        out = run(python, *args)
        ok = out.returncode == code and out.stdout == stdout
        if code == 0:
            ok = ok and out.stderr == b""
        csv = local.get(what, (None,) * 4)[3]
        if csv is not None:
            with open(csv[0], "rb") as fh:
                ok = ok and fh.read() == csv[1]
        if not ok:
            mismatches += 1
        print(f"{python} ({version}): {what}: "
              f"{'ok' if ok else f'MISMATCH (exit {out.returncode})'}")
    return mismatches


def main(argv) -> int:
    if not argv:
        print("usage: python tools/interpreters.py <python> [<python> ...]",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        local = {}
        for name, command, text, streamed in (
                ("disease-free simulate", "simulate", DISEASE_FREE, False),
                ("streamed simulate", "simulate", STREAMED, True),
                ("streamed simulate-sde", "simulate-sde", STREAMED_SDE,
                 True),
                ("long-delay simulate", "simulate", LONG_DELAY, True),
                ("long-delay simulate-sde", "simulate-sde",
                 LONG_DELAY + NOISE, True)):
            stem = os.path.join(tmp, name.replace(" ", "-"))
            if streamed:
                text += f"run.trajectory = {stem}.csv\n"
            with open(f"{stem}.cfg", "w") as fh:
                fh.write(text)
            report = cli.run(command, cli.parse_config(text)).render()
            csv = None
            if streamed:
                with open(f"{stem}.csv", "rb") as fh:
                    csv = f"{stem}.csv", fh.read()
            local[name] = command, f"{stem}.cfg", report.encode(), csv
        mismatches = sum(check(python, local) for python in argv)
    print(f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
