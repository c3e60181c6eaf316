"""Batch checks over the two-column graphs up to given column heights.

Every acyclic cross-arrow configuration is listed by backtracking, and each
configuration's poset gets every census and route check.  The checks are
computed once per isomorphism class, since each verdict is invariant under
relabelling the points; ``sweep`` in the CLI writes one entry per
configuration.
"""

from __future__ import annotations

from .census import enumerate_grotops, enumerate_lts, enumerate_nuclei
from .convert import route_pass, route_reports
from .heyting import HeytingAlgebra
from .poset import TwoColumnGraph, canonical_form


def cross_configurations(p: int, q: int) -> list[frozenset]:
    """Every acyclic cross-arrow set for the given column heights, by size,
    then in ``combinations`` order over the sorted candidate arrows.  Each
    left/right pair gets no arrow or one either way, and a branch stops at
    its first cycle."""
    names = [f"{i}_" for i in range(1, p + 1)] + [f"_{j}" for j in range(1, q + 1)]
    pairs = [(a, b) for a in range(p) for b in range(p, p + q)]
    found = []

    def walk(pos: int, below: list[int], chosen: frozenset) -> None:
        # below[k]: the points under point k, as bits, in the graph so far
        if pos == len(pairs):
            found.append(chosen)
            return
        walk(pos + 1, below, chosen)
        for a, b in (pairs[pos], pairs[pos][::-1]):
            if not below[b] >> a & 1:
                under = below[b] | 1 << b
                grown = [m | under if k == a or m >> a & 1 else m for k, m in enumerate(below)]
                walk(pos + 1, grown, chosen | {(names[a], names[b])})

    walk(0, [(1 << k) - 1 for k in range(p)] + [(1 << k) - 1 << p for k in range(q)], frozenset())
    found.sort(key=lambda c: (len(c), sorted(c)))
    return found


def sweep_instance(graph: TwoColumnGraph, cap: int) -> dict:
    """All acceptance-style checks for one two-column graph; the formula
    side of the census is the faces the route pass builds."""
    poset = graph.poset()
    algebra = HeytingAlgebra(poset)
    expected = 2 ** len(poset.points)
    no = enumerate_nuclei(algebra, "oracle", point_cap=cap)
    go = enumerate_grotops(poset, "oracle", point_cap=cap)
    lo = enumerate_lts(poset, "oracle", point_cap=cap)
    rows = list(route_pass(poset, algebra))
    nf, gf, lf = zip(*(faces for _, faces, _ in rows))
    census = {
        "nuclei": len(no) == expected and set(nf) == set(no),
        "grotops": len(go) == expected and set(gf) == set(go),
        "lts": len(lo) == expected and set(lf) == set(lo),
    }
    names = ("roundtrips", "truncation_route", "closure_route", "topmost")
    reports = {name: r.ok for name, r in zip(names, route_reports(rows))}
    verdict = all(census.values()) and all(reports.values())
    return {
        "census": census,
        "checks": reports,
        "expected_count": expected,
        "ok": verdict,
    }


def sweep_entries(pmax: int, qmax: int, cap: int):
    """``(label, entry)`` for every configuration with p <= pmax and q <= qmax,
    in sweep order.  Each entry is the configuration's ``p``, ``q`` and
    ``cross`` with its class's checks; the labelled poset is looked up first,
    so the canonical form is computed once per distinct labelled poset and
    ``sweep_instance`` once per isomorphism class."""
    labelled: dict = {}
    classes: dict = {}
    for p in range(pmax + 1):
        for q in range(qmax + 1):
            for cross in cross_configurations(p, q):
                graph = TwoColumnGraph(p, q, cross)
                poset = graph.poset()
                key = (poset.points, poset._down)
                result = labelled.get(key)
                if result is None:
                    form = canonical_form(poset)
                    result = classes.get(form)
                    if result is None:
                        result = classes[form] = sweep_instance(graph, cap)
                    labelled[key] = result
                label = f"p={p} q={q} cross={{{' '.join(f'{u}>{v}' for u, v in sorted(cross))}}}"
                entry = {"p": p, "q": q, "cross": sorted([u, v] for (u, v) in cross), **result}
                yield label, entry
