import os

import numpy as np
import pytest
from hypothesis import settings

import drsplit.scenarios
from drsplit import DRTrace

# on CI (GitHub Actions sets CI) every property test runs the same examples
# on every run; a test's own settings still set its number of examples
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


def _joined(blocks):
    """Consecutive row-block traces as one trace: the stored arrays joined, the
    last block's stop reason, and the tail of the first block that has one,
    offset by the records before it (no tail if no block has one). A block
    reports a tail from the first of its own rows that the period repeats,
    which is later than the orbit's tail start where that lies in an earlier
    block, so the tail starts at the first joined row that the period
    repeats."""
    arrays = [np.concatenate([getattr(b, name) for b in blocks]) for name in ("governing", "shadow", "b_shadow")]
    starts = np.cumsum([0] + [len(b) for b in blocks])
    tails = [(int(s) + b.tail_start, b.tail_period) for s, b in zip(starts, blocks) if b.tail_start is not None]
    start, period = tails[0] if tails else (None, None)
    if tails:
        bits = arrays[0].view(np.int64)
        repeats = np.flatnonzero(np.all(bits[:-period] == bits[period:], axis=1))
        start = min(start, int(repeats[0])) if repeats.size else start
    return DRTrace(blocks[0].problem, *arrays, blocks[-1].stop_reason, start, period)


@pytest.fixture
def join_blocks():
    """Joins consecutive row-block traces into one trace."""
    return _joined


@pytest.fixture
def streamed_companion(monkeypatch):
    """``streamed_companion(check, trace)`` runs a summability check on
    ``trace`` and returns its result and the row blocks of the second orbit
    that it streamed, in order; a check that raises leaves the blocks it
    streamed before in ``streamed_companion.blocks``."""
    report = drsplit.scenarios.summability_report

    def recording_report(trace_x, trace_y, *args, **kwargs):
        def recorded():
            for block in trace_y:
                run.blocks.append(block)
                yield block

        return report(trace_x, recorded(), *args, **kwargs)

    def run(check, trace):
        run.blocks = []
        return check(trace), run.blocks

    run.blocks = []
    monkeypatch.setattr(drsplit.scenarios, "summability_report", recording_report)
    return run
