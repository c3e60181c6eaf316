"""Batch checks over the two-column graphs up to given column heights.

Every acyclic cross-arrow configuration is listed by backtracking, and each
configuration's poset gets every census and route check.  The checks are
computed once per isomorphism class, since each verdict is invariant under
relabelling the points; ``cmd_sweep``, the CLI's ``sweep``, writes one entry
per configuration.  The classes run on forked workers, one per CPU the
process may use (``taskset -c 0`` keeps it in one process), with the same
output.
"""

from __future__ import annotations

import gc
import marshal
import os
import signal
import threading

from .census import enumerate_grotops, enumerate_lts, enumerate_nuclei
from .errors import FourtopsError, SizeCapExceeded, _require_at_least
from .poset import TwoColumnGraph, canonical_form
from .routes import route_pass, route_reports


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
    expected = 2 ** len(poset.points)
    no = enumerate_nuclei(poset, "oracle", point_cap=cap)
    go = enumerate_grotops(poset, "oracle", point_cap=cap)
    lo = enumerate_lts(poset, "oracle", point_cap=cap)
    rows = list(route_pass(poset))
    nf, gf, lf = zip(*(faces for _, faces, _ in rows))
    census = {
        "nuclei": len(no) == expected and set(nf) == set(no),
        "grotops": len(go) == expected and set(gf) == set(go),
        "lts": len(lo) == expected and set(lf) == set(lo),
    }
    names = ("roundtrips", "truncation_route", "closure_route", "topmost")
    reports = {name: r.ok for name, r in zip(names, route_reports(poset, rows))}
    ok = all(census.values()) and all(reports.values())
    return {"census": census, "checks": reports, "expected_count": expected, "ok": ok}


def _share(graphs: list, cap: int, parent: int | None) -> list[dict]:
    """``sweep_instance`` on each graph; a forked worker passes its parent's
    pid, and exits at once when that parent is gone."""
    results = []
    for graph in graphs:
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        results.append(sweep_instance(graph, cap))
    return results


def _worker(graphs: list, cap: int, parent: int, w: int):
    """In a forked child: write ``r`` and the marshalled results, or ``e`` and
    the pickled exception, to the pipe ``w``, and exit without returning."""
    try:
        try:
            data = b"r" + marshal.dumps(_share(graphs, cap, parent))
        except BaseException as e:
            import pickle

            data = b"e" + pickle.dumps(e)
        while data:
            data = data[os.write(w, data) :]
    finally:
        os._exit(0)


def sweep_classes(graphs: list, cap: int) -> list[dict]:
    """``sweep_instance`` on each graph, in order.  With n workers (one per
    allowed CPU, at most one per graph), worker k forks to compute
    ``graphs[k::n]`` and the parent computes share 0.  One process does all
    when it cannot fork, runs another thread (forking could deadlock), or
    n < 2.  Any failure kills the other workers, and all are reaped."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = min(cpus, len(graphs)) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    if n < 2:
        return _share(graphs, cap, None)
    parent, shares = os.getpid(), [None] * n
    workers: dict = {}  # pid -> (share index, read end of its pipe), until reaped
    gc.freeze()  # so the collector does not touch, and so copy, every inherited page
    try:
        for k in range(1, n):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(graphs[k::n], cap, parent, w)
            os.close(w)
            workers[pid] = (k, r)
        shares[0] = _share(graphs[::n], cap, None)
        for pid, (k, r) in list(workers.items()):
            data = b"".join(iter(lambda: os.read(r, 1 << 16), b""))
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(workers.pop(pid)[1])
            if code == 0 and data[:1] == b"e":
                import pickle

                raise pickle.loads(data[1:])
            if code != 0 or data[:1] != b"r":  # killed, or died before it wrote
                raise FourtopsError(f"sweep worker {k} (pid {pid}) gave no result, exit {code}")
            shares[k] = marshal.loads(data[1:])
    except BaseException:
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, (_, r) in workers.items():
            os.close(r)
            os.waitpid(pid, 0)
        gc.unfreeze()
    return [shares[i % n][i // n] for i in range(len(graphs))]


def sweep_entries(pmax: int, qmax: int, cap: int):
    """``(label, entry)`` for every configuration with p <= pmax and q <= qmax,
    in sweep order: its ``p``, ``q`` and ``cross`` with its class's checks.
    The canonical form is computed once per distinct labelled poset, and
    ``sweep_instance`` once per isomorphism class, after all are listed."""
    labelled: dict = {}  # (points, down table) -> class index
    classes: dict = {}  # canonical form -> class index
    graphs, configs = [], []  # the first graph of each class; every (p, q, cross, class)
    for p in range(pmax + 1):
        for q in range(qmax + 1):
            for cross in cross_configurations(p, q):
                graph = TwoColumnGraph(p, q, cross)
                poset = graph.poset()
                key = (poset.points, poset._down)
                k = labelled.get(key)
                if k is None:
                    k = labelled[key] = classes.setdefault(canonical_form(poset), len(graphs))
                    if k == len(graphs):
                        graphs.append(graph)
                configs.append((p, q, cross, k))
    results = sweep_classes(graphs, cap)
    for p, q, cross, k in configs:
        label = f"p={p} q={q} cross={{{' '.join(f'{u}>{v}' for u, v in sorted(cross))}}}"
        yield label, {"p": p, "q": q, "cross": sorted([u, v] for (u, v) in cross), **results[k]}


def cmd_sweep(args, out) -> int:
    """The ``sweep`` command: every check on every configuration, computed
    once per isomorphism class (see ``sweep_entries``)."""
    for flag, value in (("--pmax", args.pmax), ("--qmax", args.qmax), ("--cap", args.cap)):
        _require_at_least(flag, value, 0)
    if args.pmax + args.qmax > args.cap:
        raise SizeCapExceeded(f"--pmax + --qmax is {args.pmax + args.qmax}, over --cap {args.cap}")
    instances = []
    ok = True
    for label, entry in sweep_entries(args.pmax, args.qmax, args.cap):
        instances.append(entry)
        ok = ok and entry["ok"]
        if not args.json:
            out.write(f"{label}: {'ok' if entry['ok'] else 'FAIL'}\n")
    if args.json:
        from .emit import emit_json

        out.write(emit_json({"result": {"instances": instances, "ok": ok}}))
    else:
        out.write(f"{sum(1 for e in instances if e['ok'])}/{len(instances)} instances ok\n")
    return 0 if ok else 1
