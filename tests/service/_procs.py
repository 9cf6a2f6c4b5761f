"""Process helpers for the multi-process service tests: never leave a child behind."""

from __future__ import annotations

#: Upper bound on any in-test rendezvous; a peer that never arrives breaks the barrier.
BARRIER_TIMEOUT_S = 60.0


def join_or_kill(processes, timeout_s: float = 120.0) -> None:
    """Join every child within ``timeout_s``; terminate, then kill, the ones still alive.

    A hung child is reported by name instead of blocking pytest at exit.
    """
    for process in processes:
        process.join(timeout=timeout_s)
    stuck = [process.name for process in processes if process.is_alive()]
    for process in processes:
        if process.is_alive():
            process.terminate()
            process.join(timeout=5)
        if process.is_alive():
            process.kill()
            process.join(timeout=5)
    assert not stuck, f"child processes still running after {timeout_s} s: {stuck}"
    exitcodes = {process.name: process.exitcode for process in processes}
    assert all(code == 0 for code in exitcodes.values()), f"child exit codes: {exitcodes}"
