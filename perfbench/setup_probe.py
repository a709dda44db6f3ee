"""Time one cold set-up: ``setup_probe.py PROFILE CHECKPOINT`` prints seconds.

Set-up is importing pillardet, resolving the profile and loading the
checkpoint, in a fresh interpreter; interpreter start-up is not included.
"""

import sys
from time import perf_counter

from child import die_with_parent

if __name__ == "__main__":
    die_with_parent()
    t0 = perf_counter()
    from pillardet.checkpoint import load_checkpoint
    from pillardet.profiles import load_profile

    profile = load_profile(sys.argv[1])
    _, arch, _ = load_checkpoint(sys.argv[2])
    elapsed = perf_counter() - t0
    if arch != profile.arch():
        sys.exit("checkpoint architecture does not match the profile")
    print(repr(elapsed))
