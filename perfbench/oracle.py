"""Reference lineage answers computed from the generator's own edge list.

Written apart from ``fedprov.lineage`` on purpose: the benchmark checks the
program's ``trace`` and ``invalidate --cascade`` outputs against these
functions, so they share no code with what they check. Edges are
``(parent, child)`` pairs of whatever node names the caller uses. Both
walks keep an explicit stack, so a long derivation chain cannot hit the
interpreter's recursion limit.
"""

from __future__ import annotations

from typing import Iterable


def _parents_of(edges: Iterable[tuple[str, str]]) -> dict[str, set[str]]:
    parents: dict[str, set[str]] = {}
    for parent, child in edges:
        parents.setdefault(child, set()).add(parent)
    return parents


def root_paths(edges: Iterable[tuple[str, str]], node: str) -> set[tuple[str, ...]]:
    """Every path from *node* back to an ancestor without parents.

    A path lists *node* first and the parentless ancestor last; a node
    without parents has the one path ``(node,)``.
    """
    parents = _parents_of(edges)
    paths: set[tuple[str, ...]] = set()
    stack = [(node,)]
    while stack:
        path = stack.pop()
        ups = parents.get(path[-1], ())
        if not ups:
            paths.add(path)
            continue
        for parent in ups:
            if parent in path:
                raise ValueError(f"cycle through {parent!r}")
            stack.append(path + (parent,))
    return paths


def forward_closure(edges: Iterable[tuple[str, str]], sources: Iterable[str]) -> set[str]:
    """Every node reachable from *sources* along edges, sources excluded
    unless one is reachable from another."""
    children: dict[str, set[str]] = {}
    for parent, child in edges:
        children.setdefault(parent, set()).add(child)
    reached: set[str] = set()
    stack = list(sources)
    while stack:
        for child in children.get(stack.pop(), ()):
            if child not in reached:
                reached.add(child)
                stack.append(child)
    return reached
