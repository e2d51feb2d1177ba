import numpy as np
import pytest

import drsplit.scenarios
from drsplit import DRTrace


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


def _joined(blocks):
    """Consecutive row-block traces as one trace: the stored arrays joined, the
    last block's stop reason, and the first block's ``stationary_at`` offset
    by the records before it (``None`` if no block has one)."""
    starts = np.cumsum([0] + [len(b) for b in blocks])
    at = next((int(s) + b.stationary_at for s, b in zip(starts, blocks) if b.stationary_at is not None), None)
    arrays = [np.concatenate([getattr(b, name) for b in blocks]) for name in ("governing", "shadow", "b_shadow")]
    return DRTrace(blocks[0].problem, *arrays, blocks[-1].stop_reason, at)


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
