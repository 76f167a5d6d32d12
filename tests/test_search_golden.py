"""Golden search trajectories: rankings *and* effort counters are pinned.

``tests/data/search_golden.json`` was captured by
``tools/capture_search_golden.py`` at the commit before the per-epoch
path columns (ISSUE 16) touched ``src/``.  Optimisations of clustering
and search must reproduce it exactly — same answers, same A* trajectory
(``expansions`` / ``generated`` / ``forced_emissions``), same cluster
heads — for ``quotient="auto"`` and ``"off"``, on one shard and on a
2-shard reshard.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "capture_search_golden.py")
_spec = importlib.util.spec_from_file_location("capture_search_golden", _TOOL)
golden_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_tool)

VARIANTS = [f"{layout}/{quotient}/Q{number}"
            for layout in ("shards1", "shards2")
            for quotient in ("auto", "off")
            for number in range(1, 13)]


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    # Through JSON once, so tuples and floats compare as the file holds them.
    return json.loads(json.dumps(
        golden_tool.capture(str(tmp_path_factory.mktemp("golden")))))


@pytest.fixture(scope="module")
def golden():
    with open(golden_tool.GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_variant_was_replayed(captured):
    assert sorted(captured) == sorted(VARIANTS)


@pytest.mark.parametrize("variant", VARIANTS)
def test_trajectory_equals_golden(captured, golden, variant):
    assert captured[variant] == golden_tool.expected(golden, variant)
