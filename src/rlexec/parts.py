"""Work cut into parts that run at the same time: the first in this process,
each other in a forked child.

`usable_parts` is how many parts a job of a given size takes: one per usable
CPU (os.sched_getaffinity), but at most one per `floor` units of work, and
one off Linux. `Children` forks the children, each writing its part to an
unlinked spool file of its own, which the parent reads only once it has
reaped that child; it reaps them in order and, when the job ends by an error
or not, kills and reaps any child left, so none outlives it. `write_parts`
writes a text export in row ranges through it: the readable `snapshots.csv`
and `qtable.csv`.

Nothing here imports NumPy. A child leaves by os._exit, running no cleanup of
the parent's: exit code 0 once its part is written, 1 if writing it raised.
"""

from __future__ import annotations

import functools
import os
import shutil
import signal
import tempfile
import warnings
from collections.abc import Callable
from io import TextIOWrapper
from pathlib import Path
from typing import BinaryIO, TextIO


def usable_parts(size: int, floor: int) -> int:
    """The parts a job of `size` units is cut into: one per usable CPU, but
    at most one per `floor` units and at least one; one off Linux, which has
    no os.sched_getaffinity."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), size // floor))


def even_ranges(count: int, parts: int) -> list[tuple[int, int]]:
    """`parts` ranges of 0 to `count` in order, of sizes at most one apart."""
    cuts = [k * count // parts for k in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))


class Children:
    """The forked children of one job, as a context manager: leaving it
    closes every child's spool and kills and reaps every child not reaped."""

    def __init__(self) -> None:
        # per child spool: its pid, None once reaped
        self._children: dict[BinaryIO, int | None] = {}

    def __enter__(self) -> Children:
        return self

    def __exit__(self, *exc_info: object) -> None:
        for spool, pid in self._children.items():
            spool.close()
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        self._children.clear()

    def fork(self, work: Callable[[BinaryIO], object], spool_dir: Path | None = None) -> BinaryIO:
        """Fork a child that runs work(spool), `spool` an unlinked spool file
        in `spool_dir`, or in tempfile's default directory; the spool, to be
        read once `reap` has returned."""
        spool = tempfile.TemporaryFile(dir=spool_dir)
        try:
            with warnings.catch_warnings():
                # From Python 3.12 fork warns in a threaded process, as NumPy's
                # BLAS pool makes every process. The child is safe: it makes no
                # BLAS call, and leaves by os._exit, running no cleanup of the
                # parent's.
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
                pid = os.fork()
        except BaseException:
            spool.close()
            raise
        if pid == 0:
            code = 1
            try:
                work(spool)
                spool.flush()
                code = 0
            finally:
                os._exit(code)
        self._children[spool] = pid
        return spool

    def reap(self, spool: BinaryIO, what: str) -> BinaryIO:
        """Wait for the child writing `spool`; the spool, rewound to be read,
        unless the child did not exit 0: then a ChildProcessError, `what`
        ended with its exit code."""
        pid = self._children[spool]
        self._children[spool] = None
        _, status = os.waitpid(pid, 0)
        if status:
            raise ChildProcessError(f"{what} ended with exit code {os.waitstatus_to_exitcode(status)}")
        spool.seek(0)
        return spool


def _write_text(write_rows: Callable[[TextIO, int, int], None], start: int, stop: int, spool: BinaryIO) -> None:
    text = TextIOWrapper(spool, encoding="utf-8", newline="")
    write_rows(text, start, stop)
    text.detach()  # flushes it, and leaves the spool open


def write_parts(
    path: str | Path, header: str, ranges: list[tuple[int, int]], write_rows: Callable[[TextIO, int, int], None]
) -> None:
    """Write `header`, then the text of each row range of `ranges` in order,
    to `path`. write_rows(fh, start, stop) writes rows `start` to `stop` to
    a text file opened with newline="". Range 0 is written here, each other
    by a forked child into an unlinked spool file beside `path`, at the same
    time, and appended once its child has exited 0; else a ChildProcessError
    names `path` and the part. The text goes to a file beside `path`, made as
    open(path, "w") makes one, which replaces `path` only once every part is
    in: a part that fails, or an interrupt, leaves `path` as it was."""
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.part")
    with Children() as children:
        spools = [children.fork(functools.partial(_write_text, write_rows, *part), path.parent) for part in ranges[1:]]
        try:
            with open(partial, "w", newline="", encoding="utf-8") as fh:
                fh.write(header)
                write_rows(fh, *ranges[0])
                fh.flush()
                for k, spool in enumerate(spools, start=2):
                    shutil.copyfileobj(children.reap(spool, f"{path}: writing part {k} of {len(ranges)}"), fh.buffer)
            os.replace(partial, path)
        finally:
            partial.unlink(missing_ok=True)
