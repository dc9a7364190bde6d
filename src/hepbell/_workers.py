"""Forked worker processes for the chunk loops of the event commands.

``generate`` hands chunk i to process i mod P and writes the results in
order (:func:`round_robin`).  ``estimate`` and ``chtest`` put a claim on each
chunk of the event file on a queue that every process takes from, and sum
the counts each process sends back (:func:`summed_counts`).  Both take
the number of rows and decide here how many processes share them
(:func:`_processes`), so no caller forks while another thread runs.  The
split is Linux only: elsewhere the usable cores are unknown, and P is 1.
"""

from __future__ import annotations

import io
import os
import pickle
import signal
import struct
import threading
from collections.abc import Callable, Iterator

# The tags of a generate worker's messages: a chunk, or the exception its
# draw raised.
_RESULT, _ERROR = b"r", b"e"
# The size asked for each worker's pipe: a formatted chunk of 16 384 rows
# takes about 0.4 MB.  Measured at 1e6 events on 2 cores, it saves about 10 %
# of `generate` against the default 64 KiB.
_PIPE_BYTES = 1 << 20
# A claim on a chunk of an event file: its index, file offset and length.
# 24 bytes is below PIPE_BUF, so each claim is written and read whole.
_CLAIM = struct.Struct("<3q")
# The chunk loops are split over processes from this many rows on.  Below
# it, a fork with its pipe and reap (about 2.3 ms) costs more than the
# second core saves.
_SPLIT_MIN_ROWS = 4 * 16_384

Workers = list[tuple[int, io.BufferedReader]]


class WorkerExited(ChildProcessError):
    """A worker process ended before it sent a chunk that was due."""


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


class _Share:
    """The chunks one process claims from the queue: the sum of their
    counts, their indices, and the first that raised, with its exception.
    ``parse.read(fd, offset, size)`` reads a chunk, ``parse(index, run)``
    parses it and ``count`` counts it; a chunk holds ``parse.rows`` rows."""

    def __init__(self, fd: int, queue: int, parse, count: Callable, zero):
        self.fd, self.queue, self.parse, self.count = fd, queue, parse, count
        self.total, self.done, self.failed = zero.copy(), [], None

    def take(self) -> bool:
        """Claim the next chunk and count it; False once the queue is empty
        and closed.  Chunks claimed after one that raised come after it, and
        are dropped."""
        claim = os.read(self.queue, _CLAIM.size)
        if claim and self.failed is None:
            index, offset, size = _CLAIM.unpack(claim)
            try:
                self.total += self.count(self.parse(index, self.parse.read(self.fd, offset, size)))
                self.done.append(index)
            except Exception as exc:  # raised once every chunk before it is known good
                self.failed = index, exc
        return bool(claim)


def summed_counts(
    fd: int,
    runs: Iterator[tuple[int, object]],
    parse,
    count: Callable,
    zero,
    rows: int,
    meanwhile: Callable[[], object],
):
    """``zero`` plus the counts of the chunks that ``runs`` cuts the file
    ``fd`` of about ``rows`` rows into, as (offset, bytes) pairs, shared by
    this process and P - 1 workers (:func:`_processes`; see :class:`_Share`
    for ``parse`` and ``count``).  ``rows`` is 0 for a file that ``pread``
    cannot read, such as a FIFO.  ``meanwhile()`` is called once the file
    is cut.

    For P = 1 nothing is forked: this process counts each chunk where
    ``runs`` cuts it, reads every byte once and raises the first error.

    Otherwise the workers are forked first.  This process cuts the file
    and puts a claim on each chunk on a queue, a pipe; when the queue is
    full, it takes a claim itself.  Every process takes claims, reads its
    chunks with ``pread``, parses and counts them, so no process reads a
    chunk it does not count, but this one cuts them all.  Once the file is
    cut, this process calls ``meanwhile()`` while the workers parse, and
    then takes claims too.  Each worker sends its share once the queue is
    empty.  The error of the lowest failed chunk is raised once every chunk
    before it is known good, and a worker that sent no share is named with
    the first chunk no process counted.  The workers are killed and reaped
    however this ends.
    """
    processes = _processes(rows, -(-rows // parse.rows))
    if processes == 1:
        total = zero.copy()
        for index, (_, run) in enumerate(runs):
            total += count(parse(index, run))
        meanwhile()
        return total
    queue, claims = os.pipe()
    put = open(claims, "wb", buffering=0)

    def work(rank: int, out: io.BufferedWriter) -> None:
        put.close()
        share = _Share(fd, queue, parse, count, zero)
        while share.take():
            pass
        failed = share.failed and (share.failed[0], _picklable(share.failed[1]))
        out.write(pickle.dumps((share.total, share.done, failed)))

    workers: Workers = []
    try:
        workers += [start_worker(rank, work) for rank in range(1, processes)]
        own, chunks = _Share(fd, queue, parse, count, zero), 0
        os.set_blocking(claims, False)
        for chunks, (offset, run) in enumerate(runs, 1):
            while put.write(_CLAIM.pack(chunks - 1, offset, len(run))) is None:
                own.take()  # the queue is full
        put.close()
        meanwhile()
        while own.take():
            pass
        shares = [(os.getpid(), (own.total, own.done, own.failed))]
        shares += [(pid, _unpickled(reader.read())) for pid, reader in workers]
    finally:
        put.close()
        os.close(queue)
        _end(workers)
    total, settled, failures, ended = zero.copy(), bytearray(chunks + 1), {}, []
    for pid, share in shares:
        if share is None:
            ended.append(pid)
            continue
        counts, done, failed = share
        total += counts
        for index in done:
            settled[index] = 1
        if failed:
            failures[failed[0]] = failed[1]
            settled[failed[0]] = 1
    missing = settled.index(0)  # chunk ``chunks`` is never settled
    first_failed = min(failures, default=chunks)
    if first_failed < missing:
        raise failures[first_failed]
    if missing < chunks:
        raise WorkerExited(f"worker process {ended[0]} ended before it sent chunk {missing}")
    return total


def _unpickled(data: bytes):
    """A worker's share, or None where it ended before it sent it whole."""
    try:
        return pickle.loads(data)
    except Exception:
        return None
