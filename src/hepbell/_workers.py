"""Forked worker processes for the chunk loops of the event commands.

``generate`` hands chunk i to process i mod P and writes the results in
order (:func:`round_robin`).  ``estimate`` and ``chtest`` cut the event file
into P byte ranges and count range i in process i, and this process gathers
what each sends back (:func:`ranks_in_processes`).  P is decided here from
the number of rows (:func:`_processes`), so no caller forks while another
thread runs.  The split is Linux only: elsewhere the usable cores are
unknown, and P is 1.
"""

from __future__ import annotations

import io
import os
import pickle
import signal
import threading
from collections.abc import Callable, Iterator

# The tags of a generate worker's messages: a chunk, or the exception its
# draw raised.
_RESULT, _ERROR = b"r", b"e"
# The size asked for each worker's pipe: a formatted chunk of 16 384 rows
# takes about 0.4 MB.  Measured at 1e6 events on 2 cores, it saves about 10 %
# of `generate` against the default 64 KiB.
_PIPE_BYTES = 1 << 20
# The chunk loops are split over processes from this many rows on.  Below
# it, a fork with its pipe and reap (about 2.3 ms) costs more than the
# second core saves.
_SPLIT_MIN_ROWS = 4 * 16_384

Workers = list[tuple[int, io.BufferedReader]]


class WorkerExited(ChildProcessError):
    """A worker process ended before it sent a result that was due."""


def _usable_cores() -> int:
    """The cores this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _processes(rows: int, chunks: int) -> int:
    """How many processes share ``chunks`` chunks of ``rows`` rows in all:
    the usable cores, at most one per chunk.  One below ``_SPLIT_MIN_ROWS``
    rows, and while another thread runs, because a forked copy holds only
    the calling thread and whatever locks the others held."""
    if rows < _SPLIT_MIN_ROWS or threading.active_count() > 1:
        return 1
    return min(_usable_cores(), chunks)


def round_robin(tasks: range, work: Callable[[int], bytes], rows: int) -> Iterator:
    """``work(task)`` for each of ``tasks``, the chunks of ``rows`` rows, in
    order, task i done by process ``i % P`` (:func:`_processes`): this one
    for 0, forked workers for the others.

    The workers are forked once the first result has been yielded.  Each
    sends its results through a pipe, which holds them until this process
    reads each, into one buffer it reuses, as it is due; a result is valid
    until the next is asked for.  An exception in a worker's task is sent in
    its result's place and raised where that result is due.  However this
    generator ends, it closes the pipes and kills and reaps every worker.
    """

    processes = _processes(rows, len(tasks))

    def send(rank: int, out: io.BufferedWriter) -> None:
        try:
            for task in tasks[rank::processes]:
                _send(out, _RESULT, work(task))
        except Exception as exc:  # raised in the parent where it is due
            _send(out, _ERROR, pickle.dumps(_picklable(exc)))

    workers: Workers = []
    received = bytearray()
    try:
        for i, task in enumerate(tasks):
            if i == 1:
                workers += [start_worker(rank, send) for rank in range(1, processes)]
            if i % processes == 0:
                yield work(task)
                continue
            pid, reader = workers[i % processes - 1]
            head = reader.read(9)
            tag, size = head[:1], int.from_bytes(head[1:], "little")
            if len(head) == 9 and tag == _ERROR and len(error := reader.read(size)) == size:
                raise pickle.loads(error)
            if len(head) == 9 and tag == _RESULT:
                if size > len(received):
                    received = bytearray(size)
                if reader.readinto(result := memoryview(received)[:size]) == size:
                    yield result
                    continue
            raise WorkerExited(f"worker process {pid} ended before it sent chunk {i}")
    finally:
        _end(workers)


def ranks_in_processes(work: Callable[[int], object], processes: int) -> list:
    """``[work(0), ..., work(processes - 1)]``: ``work(0)`` in this process,
    each other rank in a worker forked before, which sends its result back
    pickled; one that sends none, as where ``work`` raises, raises
    WorkerExited.  The workers are killed and reaped however this ends."""
    workers: Workers = []
    try:
        for rank in range(1, processes):
            workers.append(start_worker(rank, lambda r, out: out.write(pickle.dumps(work(r)))))
        results = [work(0)]
        for pid, reader in workers:
            try:
                results.append(pickle.loads(reader.read()))
            except Exception:  # nothing sent, or a part
                raise WorkerExited(f"worker process {pid} ended before it sent its counts")
    finally:
        _end(workers)
    return results


def start_worker(
    rank: int, run: Callable[[int, io.BufferedWriter], None]
) -> tuple[int, io.BufferedReader]:
    """Fork worker ``rank``, which calls ``run(rank, out)`` with the write end
    of a pipe; its pid and the read end.  A worker ends only by ``os._exit``,
    so no ``finally`` of the caller's frames runs in its copy."""
    # Imported here: fcntl is POSIX only, as the split is.
    import fcntl

    read_fd, write_fd = os.pipe()
    try:
        # Room for two formatted chunks, so that a worker rarely waits to send one.
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except OSError:
        pass  # over the user's pipe quota: the default size works, more slowly
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                run(rank, out)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _end(workers: Workers) -> None:
    """Close the workers' pipes, and kill and reap the workers."""
    for pid, reader in workers:
        reader.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _send(out: io.BufferedWriter, tag: bytes, payload) -> None:
    out.write(tag + len(payload).to_bytes(8, "little"))
    out.write(payload)
    out.flush()


def _picklable(exc: Exception) -> Exception:
    """``exc``, or where it does not come back from a pickle, a RuntimeError
    that names it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc
