"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The workload runs in a
fresh interpreter (perfbench/measure.py) with every BLAS/OpenMP thread pool
fixed to one thread and the package imported from src/.  measure.py checks the
arguments; the last line of standard output is the run's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
NEEDED = (os.path.join("src", "elastobranch", "__init__.py"),
          os.path.join("demos", "configs", "shear.ini"),
          os.path.join("demos", "configs", "dead_load.ini"))
TIMEOUT_S = 170


def main(argv):
    missing = [n for n in NEEDED if not os.path.isfile(os.path.join(ROOT, n))]
    if missing:
        print("perfbench: not a checkout of elastobranch, missing %s"
              % ", ".join(missing), file=sys.stderr)
        return 2

    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "measure.py")] + argv
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: the run did not finish within %d s" % TIMEOUT_S,
              file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
