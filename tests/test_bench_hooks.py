"""Every layer the benchmark traces still exists under the name it hooks.

The benchmark skips a hook whose target is gone and reports it only in
``missing_hooks``, so a rename in ``lpk`` would silently drop that
layer's per-layer metrics.  This pins each target to a live callable.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

from layers import HOOKS  # noqa: E402
from spans import _resolve  # noqa: E402


@pytest.mark.parametrize("target", [t for hook in HOOKS for t in hook.targets])
def test_hook_target_resolves(target):
    owner, attr = _resolve(target)
    assert owner is not None, f"{target} no longer resolves"
    assert callable(getattr(owner, attr))
