"""The report of a command: deterministic "key = value" lines.

A value is rendered by its exact class (_FORMAT); the keys of a record's
fields (params.*, init.*, x_star.*, certificate.*, ...) follow the record's
field order. Both command families fill their reports through _echo and
_add_state. _destination writes a file whole: the report for --out, the
trajectory CSV for run.trajectory.
"""
from __future__ import annotations

import contextlib
import errno
import os
import stat
from typing import Optional

from ._config import _ECHO, RunConfig
from .model_core import State, ValidationError

__all__ = ["Report"]

# the text of a report value, by its exact class: a float as 17
# significant digits, a bool as true/false, None as none
_FORMAT = {float: "%.17g".__mod__, bool: ("false", "true").__getitem__,
           int: str, str: str, type(None): lambda _: "none"}


class Report:
    """Ordered key/value lines, rendered by the exact class of each value."""

    def __init__(self, command: str):
        self._items: list[tuple[str, object]] = [("command", command)]
        self._warnings: list[str] = []

    def add(self, key: str, value) -> None:
        self._items.append((key, value))

    def extend(self, pairs) -> None:
        """add each (key, value) of pairs, in order."""
        self._items.extend(pairs)

    def warn(self, message: str) -> None:
        self._warnings.append(message)

    def get(self, key: str):
        for k, v in self._items:
            if k == key:
                return v
        raise KeyError(key)

    def render(self) -> str:
        lines = [f"{k} = {_FORMAT[type(v)](v)}\n" for k, v in self._items]
        lines.extend(f"warning.{j} = {w}\n" for j, w in enumerate(self._warnings))
        return "".join(lines)


_STATE_KEYS = {prefix: tuple(f"{prefix}.{name}" for name in State._fields)
               for prefix in ("x_free", "x_star", "final")}


def _echo(rep: Report, cfg: RunConfig, with_run: bool = False,
          with_ensemble: bool = False) -> None:
    rep.extend(zip(_ECHO, cfg.params + cfg.initial))
    if with_run:
        rep.add("run.horizon", cfg.horizon)
        rep.add("run.step", cfg.resolved_step())
        _, _, t_last = cfg.grid()
        if t_last != cfg.horizon:
            rep.warn(f"run.horizon = {cfg.horizon!r} is not a whole number "
                     f"of steps; the last node is t = {t_last!r}")
    if with_ensemble:
        rep.extend((("ensemble.n_rep", cfg.n_rep), ("ensemble.seed", cfg.seed)))
    for w in cfg.warnings:
        rep.warn(w)


def _add_state(rep: Report, prefix: str, values) -> None:
    rep.extend(zip(_STATE_KEYS[prefix], map(float, values)))


@contextlib.contextmanager
def _destination(path: Optional[str], header: str = ""):
    """A text file for path, with header written, or None when path is
    None; the destination is replaced only by a complete file.

    The text goes to a new temporary file, created with O_EXCL beside the
    file that path resolves to (through a symlink, which stays a link).
    When the block ends without error, os.replace moves it onto that file
    in one step, so an existing regular file becomes a new file that keeps
    its permission bits but not its owner or its hard links; on any error
    it is removed, so the destination keeps its bytes or stays absent. An
    existing file that is not a regular one (a device, a pipe) is written
    in place. The destination is checked as the block starts, so a run
    whose report or trajectory could not be written fails before its first
    step. Any OSError raised inside the block, the whole path run for
    run.trajectory and the whole command for --out, becomes a
    ValidationError "cannot write '<path>'".
    """
    if path is None:
        yield None
        return
    real = os.path.realpath(path)
    tmp = None
    try:
        try:
            mode = os.stat(real).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(path, "w", newline="\n") as fh:
                fh.write(header)
                yield fh
            return
        if mode is not None and not os.access(real, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        stem = os.path.join(os.path.dirname(real),
                            f".{os.path.basename(real)}.{os.getpid()}")
        k = 0
        while True:
            try:
                fd = os.open(f"{stem}-{k}.tmp",
                             os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
            except FileExistsError:
                k += 1
        tmp = f"{stem}-{k}.tmp"
        with open(fd, "w", newline="\n") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            fh.write(header)
            yield fh
        os.replace(tmp, real)
        tmp = None
    except OSError as exc:
        raise ValidationError(
            f"cannot write {path!r}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
