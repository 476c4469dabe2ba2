"""Run the goldens under each given Python interpreter, byte for byte.

    python tools/interpreters.py <python> [<python> ...]

For each interpreter, runs `<python> -m seirs_delay` with src/ as its
PYTHONPATH on the seven goldens that need no numpy (equilibria, stability,
both delay-margin, lyapunov and both simulate) and compares each report
with its golden byte for byte. It also runs `simulate` from a disease-free
start, whose minimum is a zero, and compares its report with the one this
script's own interpreter renders in process, and checks that --version
prints the package version and that an unknown command exits 2. Where the
interpreter can import numpy, the simulate-sde and concentration goldens
run too. An interpreter that cannot start is reported as skipped. It is a
check: the exit code is 1 on any mismatch and 0 when there is none.
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
           "simulate": "simulate", "simulate-ode": "simulate"}
NUMPY_GOLDENS = {"simulate-sde": "simulate-sde",
                 "concentration": "concentration"}
# s0 = 1: E, I and R stay +0.0, so the report's min_component is a zero
DISEASE_FREE = ("params.beta = 0.1\nparams.mu = 0.2\nparams.gamma = 0.3\n"
                "params.k_r = 2.0\nrun.horizon = 10.0\ninit.s0 = 1.0\n"
                "init.e0 = 0.0\ninit.i0 = 0.0\ninit.r0 = 0.0\n")
# the children see src/ and nothing of this interpreter's path, and write
# no bytecode into src/
ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}


def run(python: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([python, *args], capture_output=True, env=ENV,
                          cwd=ROOT, timeout=300)


def check(python: str, disease_free: str) -> int:
    """Print one line per check of python, disease_free being the path of
    the DISEASE_FREE config; return the number of mismatches, or 0 when
    python cannot start."""
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
    checks += [("disease-free simulate",
                ["-m", "seirs_delay", "simulate", "--config", disease_free],
                0, cli.run("simulate", cli.parse_config(DISEASE_FREE))
                .render().encode()),
               ("--version", ["-m", "seirs_delay", "--version"], 0,
                f"{__version__}\n".encode()),
               ("unknown command", ["-m", "seirs_delay", "bogus", "--config",
                                    str(GOLDEN / "equilibria.cfg")], 2, b"")]
    mismatches = 0
    for what, args, code, stdout in checks:
        out = run(python, *args)
        ok = out.returncode == code and out.stdout == stdout
        if code == 0:
            ok = ok and out.stderr == b""
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
        disease_free = os.path.join(tmp, "disease-free.cfg")
        with open(disease_free, "w") as fh:
            fh.write(DISEASE_FREE)
        mismatches = sum(check(python, disease_free) for python in argv)
    print(f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
