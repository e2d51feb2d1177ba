"""Print every metric of every workload by name: end-to-end and per-layer.

    python3 bench/report.py --seed 1 --seconds 30

Runs ``bench/run.py`` once untraced and once traced per workload, each in its
own process, and prints ``<workload> trace=<0|1> <metric> <value> <unit>`` lines.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            for line in proc.stdout.splitlines():
                if line.startswith("metric "):
                    _, name, value, unit = line.split()
                    print(f"{workload:20s} trace={trace} {name:48s} {float(value):14.6g} {unit}")
            sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
