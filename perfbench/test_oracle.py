"""Tests of the benchmark's reference lineage oracle on hand-built graphs.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import pytest

from oracle import forward_closure, root_paths

# data -> train -> model, with the model iterated twice by was-derived-from.
CHAIN = [("data", "model"), ("model", "model.2"), ("model.2", "model.3")]

# A diamond: both branches start at "src" and meet at "sink".
DIAMOND = [("src", "left"), ("src", "right"), ("left", "sink"), ("right", "sink")]

# Two experiments; the second model is also trained on the first dataset.
CROSS = [
    ("e0.data", "e0.model"),
    ("e1.data", "e1.model"),
    ("e0.data", "e1.model"),
    ("e1.model", "e1.result"),
]


def test_parentless_node_has_one_path_of_itself():
    assert root_paths(CHAIN, "data") == {("data",)}
    assert root_paths([], "alone") == {("alone",)}


def test_derivation_chain_has_one_path_to_its_root():
    assert root_paths(CHAIN, "model.3") == {("model.3", "model.2", "model", "data")}


def test_diamond_has_one_path_per_branch():
    assert root_paths(DIAMOND, "sink") == {
        ("sink", "left", "src"),
        ("sink", "right", "src"),
    }


def test_cross_experiment_link_adds_a_root():
    assert root_paths(CROSS, "e1.result") == {
        ("e1.result", "e1.model", "e1.data"),
        ("e1.result", "e1.model", "e0.data"),
    }


def test_closure_of_chain_root_is_whole_chain():
    assert forward_closure(CHAIN, ["data"]) == {"model", "model.2", "model.3"}
    assert forward_closure(CHAIN, ["model.3"]) == set()


def test_closure_counts_diamond_sink_once():
    assert forward_closure(DIAMOND, ["src"]) == {"left", "right", "sink"}
    assert forward_closure(DIAMOND, ["left"]) == {"sink"}


def test_closure_crosses_experiments():
    assert forward_closure(CROSS, ["e0.data"]) == {"e0.model", "e1.model", "e1.result"}


def test_closure_of_several_sources_includes_a_source_reached_from_another():
    assert forward_closure(CHAIN, ["model", "data"]) == {"model", "model.2", "model.3"}
    assert forward_closure(CROSS, ["e0.model", "e1.data"]) == {"e1.model", "e1.result"}


def test_long_chain_needs_no_recursion():
    chain = [(f"n{i}", f"n{i + 1}") for i in range(5000)]
    (path,) = root_paths(chain, "n5000")
    assert len(path) == 5001 and path[-1] == "n0"
    assert len(forward_closure(chain, ["n0"])) == 5000


def test_cycle_is_refused():
    with pytest.raises(ValueError):
        root_paths([("a", "b"), ("b", "a"), ("r", "a")], "b")
