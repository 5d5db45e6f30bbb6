"""The quantum Bruhat graph of a finite Weyl group.

Vertices are the elements of W.  For every w and every positive root alpha
there is an edge w -> w s_alpha when either

* l(w s_alpha) = l(w) + 1                      (Bruhat edge, weight 0), or
* l(w s_alpha) = l(w) + 1 - <alpha^vee, 2 rho> (quantum edge, weight alpha^vee).

Weights are recorded in simple-coroot coordinates.  The graph is strongly
connected; d(u, v) denotes the minimal number of edges on a path u -> v and
wt(u, v) the weight of such a path, which is independent of the chosen
shortest path (this independence is asserted on every query).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import Optional, Sequence

from .rootdata import RootDatum, Vec
from .weyl import WeylElement, reflection, weyl_group


@dataclass(frozen=True, eq=False)
class QBGraph:
    """Quantum Bruhat graph with lazily computed distance/weight rows."""

    datum: RootDatum
    vertices: tuple[WeylElement, ...]  # weyl_group order: vertex i has index i
    edges: tuple[tuple[tuple[int, Vec, int], ...], ...]  # per source: (target, wt, root)
    _rows: dict = field(default_factory=dict, repr=False)
    _weights: dict = field(default_factory=dict, repr=False)  # shared by all rows

    @staticmethod
    def of(d: RootDatum) -> "QBGraph":
        if "qbg" not in d._caches:
            vertices = weyl_group(d)
            zero = tuple(0 for _ in range(d.ss_rank))
            refl = [reflection(d, a) for a in range(d.n_pos)]
            quantum = [1 - d.pair_2rho(d.roots[a].covec) for a in range(d.n_pos)]
            edges = []
            for w in vertices:
                out = []
                for a, s in enumerate(refl):
                    ws = w * s
                    dl = ws.length - w.length
                    if dl == 1:
                        out.append((ws.index, zero, a))
                    elif dl == quantum[a]:
                        out.append((ws.index, d.roots[a].cocoords, a))
                edges.append(tuple(out))
            d._caches["qbg"] = QBGraph(d, vertices, tuple(edges))
        return d._caches["qbg"]

    @property
    def n_edges(self) -> int:
        return sum(len(e) for e in self.edges)

    def n_edges_by_kind(self) -> tuple[int, int]:
        """(number of Bruhat edges, number of quantum edges)."""
        zero = tuple(0 for _ in range(self.datum.ss_rank))
        bruhat = sum(1 for out in self.edges for (_, wt, _) in out if wt == zero)
        return bruhat, self.n_edges - bruhat

    def _row(self, src: int) -> tuple[tuple[int, ...], tuple[Vec, ...]]:
        """(distances, weights) from the given source to every vertex.

        Computed by breadth-first search; while assembling the row, the
        weight of every shortest predecessor edge is checked for agreement,
        so a would-be path-dependent weight raises immediately.
        """
        if src not in self._rows:
            n = len(self.vertices)
            dist = [-1] * n
            dist[src] = 0
            frontier = [src]
            level = 0
            order = [src]
            while frontier:
                level += 1
                new = []
                for u in frontier:
                    for v, _, _ in self.edges[u]:
                        if dist[v] == -1:
                            dist[v] = level
                            new.append(v)
                            order.append(v)
                frontier = new
            if any(x == -1 for x in dist):  # pragma: no cover - graph is connected
                raise AssertionError("quantum Bruhat graph is not strongly connected")
            weights = self._weights
            wt: list[Optional[Vec]] = [None] * n
            wt[src] = tuple(0 for _ in range(self.datum.ss_rank))
            for u in order:
                du, wu = dist[u] + 1, wt[u]
                for v, w_edge, _ in self.edges[u]:
                    if dist[v] != du:
                        continue
                    if any(w_edge):  # a Bruhat edge adds nothing
                        cand = tuple(map(add, wu, w_edge))
                        cand = weights.setdefault(cand, cand)
                    else:
                        cand = wu
                    if wt[v] is None:
                        wt[v] = cand
                    elif wt[v] != cand:  # pragma: no cover - shortest-path weights are unique
                        raise AssertionError(
                            "shortest paths with different weights in the "
                            "quantum Bruhat graph"
                        )
            self._rows[src] = (tuple(dist), tuple(wt))
        return self._rows[src]

    def d(self, u: WeylElement, v: WeylElement) -> int:
        """Minimal number of edges on a path u -> v."""
        return self._row(u.index)[0][v.index]

    def wt(self, u: WeylElement, v: WeylElement) -> Vec:
        """Weight of a shortest path u -> v, in simple-coroot coordinates."""
        return self._row(u.index)[1][v.index]

    def wt_vec(self, u: WeylElement, v: WeylElement) -> Vec:
        """Weight of a shortest path u -> v, as an element of X."""
        c = self.wt(u, v)
        d = self.datum
        out = [0] * d.rank
        for i, m in enumerate(c):
            cov = d.roots[d.simple_idx[i]].covec
            for k in range(d.rank):
                out[k] += m * cov[k]
        return tuple(out)

    def path_weight(self, path: Sequence[WeylElement]) -> tuple[int, Vec]:
        """(steps, weight) of an explicit edge path; raises if not a path."""
        steps = 0
        acc = tuple(0 for _ in range(self.datum.ss_rank))
        for u, v in zip(path, path[1:]):
            for t, w_edge, _ in self.edges[u.index]:
                if t == v.index:
                    acc = tuple(a + b for a, b in zip(acc, w_edge))
                    steps += 1
                    break
            else:
                raise ValueError(f"no edge {u!r} -> {v!r}")
        return steps, acc

    def to_dot(self) -> str:
        """Deterministic Graphviz rendering (quantum edges dashed)."""
        zero = tuple(0 for _ in range(self.datum.ss_rank))
        lines = ["digraph qbg {"]
        for i, w in enumerate(self.vertices):
            lines.append(f'  n{i} [label="{w!r}"];')
        for i, out in enumerate(self.edges):
            for t, wt, a in out:
                style = ' [style=dashed]' if wt != zero else ""
                lines.append(f"  n{i} -> n{t}{style};")
        lines.append("}")
        return "\n".join(lines)
