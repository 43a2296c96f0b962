"""Tasks shared among the calling process and forked children.

The enumerator loads this module only when a search forks helpers
(enumerator._split), so a search that runs inline never compiles it.
A task is a key; run(key) gives its outcome, which a child pickles
back to the caller.
"""

from __future__ import annotations

import os


def _share(run, keys, size: int):
    """Yield run(key) for each key in order, the tasks shared among size processes.

    Each process claims the next task not yet claimed (_Tickets) as soon
    as it is free, so one that runs slower or draws longer tasks claims
    fewer.  Process 0 is the caller, which runs the tasks it claims
    inline; the others are forked children (_fork), which send each
    outcome with its task number as soon as they have it.  The caller
    takes what the children sent after each task of its own, and waits
    for them once no task is left to claim; it yields task j as soon as
    tasks 0..j are all in.  Whatever ends the generator (its last
    outcome, a task's exception re-raised here, or close() when the
    consumer stops), every pipe is closed and every child reaped when
    it ends; a child is killed first unless every outcome has arrived.
    """
    import select
    import signal

    tickets = _Tickets(len(keys))
    children: dict[int, int] = {}  # the read end of each child's pipe: its pid
    outcomes: dict[int, object] = {}
    done = False
    try:
        for _ in range(1, size):
            fd, pid = _fork(run, keys, tickets, children)
            children[fd] = pid
        for j in range(len(keys)):
            while j not in outcomes:
                mine = tickets.claim()
                if mine is not None:
                    outcomes[mine] = run(keys[mine])
                # Poll after a task of the caller's; block when none is left.
                timeout = 0 if mine is not None else None
                for fd in select.select(list(children), [], [], timeout)[0]:
                    _receive(fd, children, outcomes)
            outcome = outcomes.pop(j)
            if isinstance(outcome, Exception):
                raise outcome
            yield outcome
        done = True
    finally:
        tickets.close()
        for fd, pid in children.items():
            os.close(fd)
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


class _Tickets:
    """The number of the next task to claim, shared by forked processes.

    A pipe holds it as one 8-byte message: a claim reads it, which no
    other process can do until the claim writes back the next number.
    """

    def __init__(self, count: int) -> None:
        self.count = count
        self.r, self.w = os.pipe()
        os.write(self.w, bytes(8))

    def claim(self) -> int | None:
        """The task number claimed, or None once every task is claimed."""
        j = int.from_bytes(os.read(self.r, 8), "little")
        os.write(self.w, (j + 1).to_bytes(8, "little"))
        return j if j < self.count else None

    def close(self) -> None:
        os.close(self.r)
        os.close(self.w)


def _fork(run, keys, tickets: _Tickets, siblings) -> tuple[int, int]:
    """Fork a child that runs the tasks it claims; the read end of its pipe and its pid.

    The child sends each task's number and outcome, or the exception the
    task raised, after which it stops: an 8-byte length, then the pickle.
    It leaves through os._exit, so it never returns into the caller's
    stack, runs no atexit handler and flushes no buffer it inherited.
    siblings are the read ends of the children forked before, which the
    child closes.
    """
    import pickle

    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            for fd in siblings:
                os.close(fd)
            with open(w, "wb") as out:
                while (j := tickets.claim()) is not None:
                    try:
                        outcome = run(keys[j])
                    except Exception as exc:
                        outcome = exc
                    message = pickle.dumps((j, outcome))
                    out.write(len(message).to_bytes(8, "little") + message)
                    out.flush()
                    if isinstance(outcome, Exception):
                        break
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return r, pid


def _receive(fd: int, children: dict[int, int], outcomes: dict) -> None:
    """Take the next message on a child's pipe into outcomes, or reap the child at its end.

    A child that ends with a nonzero status took a task it did not send.
    """
    import pickle

    head = _read(fd, 8)
    if not head:
        pid = children.pop(fd)
        os.close(fd)
        _, status = os.waitpid(pid, 0)
        if status:
            raise RuntimeError(
                f"search worker {pid} ended before sending its results"
                f" (exit status {os.waitstatus_to_exitcode(status)})"
            )
        return
    j, outcome = pickle.loads(_read(fd, int.from_bytes(head, "little")))
    outcomes[j] = outcome


def _read(fd: int, n: int) -> bytes:
    """n bytes from fd, or fewer at its end."""
    data = b""
    while len(data) < n:
        chunk = os.read(fd, n - len(data))
        if not chunk:
            break
        data += chunk
    return data
