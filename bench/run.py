"""Run one bandvie benchmark workload and print its metrics.

    python3 bench/run.py --workload colloc-sweep --seed 1 --seconds 60 --trace 0

Run from the repository root.  The library is imported from ``src/`` and
driven only through ``bandvie.cli.main(["study", ...])``, in this one
process with BLAS/OpenMP pinned to one thread.  Passes over the workload
repeat until ``--seconds`` would be exceeded (at least one pass); the seed
only shuffles the order of the workload's invocations.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics of the median
traced pass and writes its spans and a layer table under ``.bench_out/``.
The last stdout line is the JSON result; earlier lines record the
environment and run details.  Every solve is checked against
``bench/reference.json``; ``--write-reference`` rerecords that file.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"           # before numpy is imported
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from bench.harness import main

    sys.exit(main())
