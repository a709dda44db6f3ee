"""Child processes of the benchmark end with the process that started them.

Every process the benchmark starts gets ``PERFBENCH_PARENT`` (its parent's
pid) in its environment and calls ``die_with_parent`` first: the kernel then
kills it when its parent ends, also when the parent is killed outright and
cannot stop it itself.
"""

import ctypes
import os
import signal
import sys

PARENT_VAR = "PERFBENCH_PARENT"
PR_SET_PDEATHSIG = 1


def die_with_parent() -> None:
    """Ask for SIGKILL when the parent ends; exit now if it has already ended."""
    parent = os.environ.get(PARENT_VAR)
    if parent is None:
        return
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):  # not Linux: the parent's own clean-up still applies
        pass
    if os.getppid() != int(parent):
        sys.exit("parent process has ended")
