"""Print one digest line per run of the standard byte-identity matrix.

Every run goes in-process through ``drsplit.cli.main`` (the demos through
``runpy``) and prints its exit code and the sha256 of its stdout, stderr,
trace CSV and summary JSON; a file the run did not write shows as ``-``.
Two checkouts produce identical artifacts when their outputs diff clean:

    python tools/artifact_digests.py > after.txt
    (cd ../other-checkout && python tools/artifact_digests.py) > before.txt
    diff before.txt after.txt

The script imports drsplit from the ``src/`` directory next to it, so it
digests the checkout it lives in. It is a check, not a benchmark: it
measures no time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import runpy
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from drsplit.cli import main as cli_main  # noqa: E402
from drsplit.scenarios import build_scenario, list_scenarios  # noqa: E402


def _sha(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def _capture(fn) -> tuple[object, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = fn()
    return result, out.getvalue().encode(), err.getvalue().encode()


def _read(path: pathlib.Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def cli_runs() -> list[list[str]]:
    """The argument lists of the CLI part of the matrix, in print order."""
    runs = []
    for name, _description, _anchor in list_scenarios():
        for seed in (0, 3):
            runs.append(["--scenario", name, "--seed", str(seed)])
    for dim in (2, 5, 50):
        for seed in (1, 2):
            runs.append(["--scenario", "random-affine", "--dim", str(dim), "--seed", str(seed)])
    runs.append(["--scenario", "random-1d", "--seed", "4"])
    # a trace whose every CSV block holds no repeated number
    runs.append(["--scenario", "random-affine", "--dim", "50", "--seed", "1", "--iters", "400"])
    # the error paths
    runs.append(["--scenario", "rotator-cone", "--dim", "3"])
    runs.append(["--scenario", "points-1d", "--dim", "2"])
    runs.append(["--scenario", "random-affine", "--dim", "1"])
    runs.append(["--scenario", "random-affine", "--dim", "0"])
    runs.append(["--scenario", "parallel-lines", "--x0=1,2,3"])
    # two far-out starts whose closed-form fixed points overflow in their step
    # norms, so none is certified (exit 4), and a stationary stop
    runs.append(["--scenario", "random-affine", "--dim", "2", "--x0=1e200,-1e200", "--iters", "200"])
    runs.append(["--scenario", "random-affine", "--dim", "3", "--x0=1e200,1e200,1e200"])
    runs.append(["--scenario", "random-affine", "--dim", "5", "--seed", "3", "--tol", "1e-9"])
    runs.append(["--check-identities", "--seed", "7", "--samples", "50"])
    # the check phase's row blocks: one record past a block of d=50 rows
    # (space.BLOCK_NUMBERS // 50 = 2,621 records), and a single record
    runs.append(["--scenario", "random-affine", "--dim", "50", "--seed", "1", "--iters", "2622"])
    runs.append(["--scenario", "random-affine", "--dim", "50", "--seed", "1", "--iters", "1"])
    # a sweep that crosses row blocks at every pair dimension (16,384 samples
    # of dimension 1, 3,276 of dimension 5)
    runs.append(["--check-identities", "--seed", "7", "--samples", "20000"])
    # a sweep whose every stack holds one row, the edge case of the steps each
    # pair's reports share
    runs.append(["--check-identities", "--seed", "3", "--samples", "1"])
    # the four infeasible scenarios at 10^4 records from a non-default start,
    # as the infeasible-persist benchmark runs them, and a tolerance stop
    # inside a block of iterate's step tests (465 records)
    runs.append(["--scenario", "disjoint-balls", "--x0=1.25,-2.5", "--iters", "10000"])
    runs.append(["--scenario", "parallel-lines", "--x0=-2.123456,0.75", "--iters", "10000"])
    runs.append(["--scenario", "shifted-subspace", "--x0=2.5,-1.875", "--iters", "10000"])
    runs.append(["--scenario", "points-1d", "--x0=-3.25", "--iters", "10000"])
    runs.append(["--scenario", "random-affine", "--dim", "5", "--seed", "11", "--tol", "1e-10"])
    # summability companions that cross the check's row blocks of 3 d-number
    # records (8,738 at d=5, 21,845 at d=2): one that turns stationary at
    # n = 749 while the lead goes on, one stationary at n = 169 and filled
    # across blocks, and a d=2 one over three blocks
    runs.append(["--scenario", "random-affine", "--dim", "5", "--seed", "11", "--iters", "20000"])
    runs.append(["--scenario", "random-affine", "--dim", "5", "--seed", "3", "--iters", "20000"])
    runs.append(["--scenario", "random-affine", "--dim", "2", "--seed", "4", "--iters", "50000"])
    # the check's companion at the real d=50 block size of 873 records: it
    # turns stationary at n = 45 (the lead at n = 112), so 11 of its 12 blocks
    # start at its fixed point
    runs.append(["--scenario", "random-affine", "--dim", "50", "--seed", "10"])
    # orbits that end in an exact cycle and are tiled from it: period 12 from
    # n = 217, period 30 from n = 656 (found at the 2,016-record window), and
    # period 5 from n = 102, whose companion (period 3 from n = 111) cycles
    # across its blocks of 8,738 records
    runs.append(["--scenario", "random-affine", "--dim", "2", "--seed", "994794"])
    runs.append(["--scenario", "random-affine", "--dim", "2", "--seed", "98827"])
    runs.append(["--scenario", "random-affine", "--dim", "5", "--seed", "5351", "--iters", "20000"])
    # translating orbits whose records iterate takes a block at a time: steps
    # that change where a coordinate crosses a power of two (parallel-lines,
    # shifted-subspace) and one constant step (points-1d)
    runs.append(["--scenario", "parallel-lines", "--x0=1.2,-2.1", "--iters", "10000"])
    runs.append(["--scenario", "shifted-subspace", "--x0=1.2,-2.1", "--iters", "10000"])
    runs.append(["--scenario", "points-1d", "--x0=1.25", "--iters", "10000"])
    # guesses that double to whole Brent windows and to the row-block cap
    # (7,281 rows at d = 2, 14,563 at d = 1), several to a window: 10^5
    # records from parallel-lines' default start, and 40,000 from a start
    # whose first 1,075 records halve a coordinate (shifted-subspace) and
    # from one with a constant step (points-1d)
    runs.append(["--scenario", "parallel-lines", "--iters", "100000"])
    runs.append(["--scenario", "shifted-subspace", "--x0=1.2,-2.1", "--iters", "40000"])
    runs.append(["--scenario", "points-1d", "--x0=-3.75", "--iters", "40000"])
    # checks that read a tailed trace up to one period: a d=50 lead stationary
    # from n = 57 whose companion (stationary from n = 73) streams all 12
    # blocks, and a lead with period 9 from n = 1,229 whose companion has
    # period 6 from n = 330, so the summability terms repeat every 18 records
    runs.append(["--scenario", "random-affine", "--dim", "50", "--seed", "953097"])
    runs.append(["--scenario", "random-affine", "--dim", "4", "--seed", "64"])
    # 1e3 times a d=50 default start: P_Fix by linear algebra is certified
    # there, where an iterated search stalled above an absolute 1e-13
    x0 = 1e3 * build_scenario("random-affine", dim=50, seed=1).problem.x0
    x0_arg = "--x0=" + ",".join(map(repr, x0.tolist()))
    runs.append(["--scenario", "random-affine", "--dim", "50", "--seed", "1", x0_arg])
    return runs


def digest_cli(argv: list[str], work: pathlib.Path) -> str:
    csv, summary = work / "trace.csv", work / "summary.json"
    for path in (csv, summary):
        path.unlink(missing_ok=True)
    files = [] if "--check-identities" in argv else ["--out-trace", str(csv), "--out-summary", str(summary)]
    code, out, err = _capture(lambda: cli_main(argv + files))
    return f"{' '.join(argv)} | exit {code} | {_sha(out)} {_sha(err)} {_sha(_read(csv))} {_sha(_read(summary))}"


def digest_demo(script: pathlib.Path) -> str:
    _, out, err = _capture(lambda: runpy.run_path(str(script), run_name="__main__"))
    return f"demos/{script.name} | {_sha(out)} {_sha(err)}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        for argv in cli_runs():
            print(digest_cli(argv, work), flush=True)
    for script in sorted((ROOT / "demos").glob("0*.py")):
        print(digest_demo(script), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
