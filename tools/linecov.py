"""List the lines of src/seirs_delay that the Tier-1 suite never runs.

    python tools/linecov.py [pytest arguments ...]

Runs the suite in this process under sys.settrace (the standard library
only; `coverage` is not needed) and prints, per module, the executable
lines that no test reached, then their count. Subprocesses the tests start
(`python -m seirs_delay ...`, `python -c ...`) are traced too: a generated
sitecustomize module, first on their PYTHONPATH, starts the same tracer in
each child and writes its lines to a scratch directory at exit, where this
script merges them. A child started with -I, -S or -E is not traced.

Extra arguments go to pytest after the Tier-1 ones, for instance
`-k "not criterion_02"` to leave out the slowest test. It is a check: the
exit code is pytest's when the tests fail, else 1 when any line is
unreached and 0 when none is. Executable lines are the line starts of each
module's compiled code, so a line of an `if TYPE_CHECKING:` block or a
condition part that short-circuits counts as unreached when it never runs.
"""
import dis
import glob
import os
import pathlib
import shutil
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = os.path.realpath(SRC / "seirs_delay") + os.sep
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]

# the tracer, as source text: this process runs it, and so does the
# sitecustomize module of every child
TRACER = '''
import atexit, os, sys, threading


def start(package, out):
    """Trace every frame of a file under package; return {path: lines}. With
    out set, write the lines to a file in that directory at exit."""
    hits, paths, tracers = {}, {}, {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        path = paths.get(name)
        if path is None:
            real = os.path.realpath(name)
            path = paths[name] = real if real.startswith(package) else ""
        if not path:
            return None
        local = tracers.get(path)
        if local is None:
            add = hits.setdefault(path, set()).add

            def local(frame, event, arg):
                if event == "line":
                    add(frame.f_lineno)
                return local

            tracers[path] = local
        return local(frame, event, arg)

    def dump():
        sys.settrace(None)
        name = os.path.join(out, f"{os.getpid()}.txt")
        with open(name, "w") as fh:
            fh.writelines(f"{path}:{line}\\n" for path, lines in hits.items()
                          for line in lines)

    sys.settrace(trace)
    threading.settrace(trace)
    if out is not None:
        atexit.register(dump)
    return hits
'''


def executable_lines(path: str) -> set[int]:
    """The line starts of every code object compiled from path."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(co) if line)
        todo.extend(c for c in co.co_consts if hasattr(c, "co_code"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    scratch = tempfile.mkdtemp(prefix="linecov-")
    try:
        children = os.path.join(scratch, "hits")
        os.mkdir(children)
        with open(os.path.join(scratch, "sitecustomize.py"), "w") as fh:
            fh.write(TRACER + f"\nstart({PACKAGE!r}, {children!r})\n")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [scratch, str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "")
                                   .split(os.pathsep) if p])
        sys.path.insert(0, str(SRC))
        os.chdir(ROOT)
        namespace: dict = {}
        exec(TRACER, namespace)
        hits = namespace["start"](PACKAGE, None)
        try:
            rc = pytest.main(TIER1 + argv)
        finally:
            sys.settrace(None)
            threading.settrace(None)
        for name in glob.glob(os.path.join(children, "*.txt")):
            with open(name) as fh:
                for entry in fh:
                    path, _, line = entry.rstrip("\n").rpartition(":")
                    hits.setdefault(path, set()).add(int(line))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    total = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        missed = sorted(executable_lines(path) - hits.get(path, set()))
        total += len(missed)
        if missed:
            print(f"{os.path.relpath(path, ROOT)}: {', '.join(map(str, missed))}")
    print(f"{total} unreached lines in src/seirs_delay")
    return int(rc) or int(total > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
