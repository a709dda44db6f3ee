"""Write one run's checkpoint(s) and inputs: ``prepare.py WORKLOAD SEED OUT_DIR``.

Runs in its own process, so that neither the time nor the memory of drawing
inputs reaches the measuring process.
"""

import sys
from pathlib import Path

from child import die_with_parent
from workloads import WORKLOADS, prepare

if __name__ == "__main__":
    die_with_parent()
    prepare(WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3]))
