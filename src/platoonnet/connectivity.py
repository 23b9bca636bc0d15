"""Exact connectivity measures for platoon graphs.

Four measures with independent computations: vertex and edge connectivity by
a sliding-window DP along the vertex order, linear in n on graphs of small
bandwidth (unit-capacity max-flows past DP_BANDWIDTH_LIMIT), r-robustness and
the isoperimetric constant from tables over all 2^n vertex subsets (exact,
refused above a size limit), and algebraic connectivity from a dense
symmetric eigensolver.
Closed-form values for the k-nearest-neighbor family P(n, k) are provided
alongside so the two routes can be checked against each other.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import (
    Graph,
    PlatoonSpec,
    _count,
    algebraic_connectivity,
    bandwidth,
    components,
    degrees,
    lambda2_bounds,
    neighbors,
    platoon_spec,
)

ROBUSTNESS_LIMIT = 19
ISO_LIMIT = 22
# no limit reaches past this n: at n = 22 the 2^n tables already peak at
# ~48 MiB (robustness) and ~8 MiB (isoperimetric constant), 4 times as much
# per two more vertices; the robustness table's uint32 subset masks overflow
# past n = 32.  The isoperimetric uint8 tables hold at most n^2/4 + n - 1
# (142 at n = 22, never negative), which fits a byte up to n = 30
EXHAUSTIVE_CEILING = 22
# largest bandwidth at which vertex and edge connectivity run the
# sliding-window DP, and max-flows past it.  The vertex DP grows as 3^b per
# vertex, the max-flows as n^2: timed on P(n, b), the DP wins from n = 40 for
# every b <= 8, and at b = 7 loses only at n = 20 (3.4 against 2.4 ms); at
# b = 8 it takes 11 ms there against 2.6, and at b = 9 loses up to n = 100
DP_BANDWIDTH_LIMIT = 7


class ExhaustiveLimitError(RuntimeError):
    """An exhaustive subset search was refused because the graph is too large."""


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


def _residual(num_nodes: int, arcs: list[tuple[int, int, int]]) -> list[dict[int, int]]:
    """Residual capacities of a flow network: arcs is a list of (u, v,
    capacity); reverse arcs are created with capacity 0.  Built once per
    network and copied by every max-flow over it."""
    cap: list[dict[int, int]] = [dict() for _ in range(num_nodes)]
    for u, v, c in arcs:
        cap[u][v] = cap[u].get(v, 0) + c
        cap[v].setdefault(u, 0)
    return cap


def _max_flow(residual: list[dict[int, int]], s: int, t: int) -> int:
    """Integer max-flow by shortest augmenting paths (BFS / Edmonds-Karp)
    on a copy of the residual network.  Deterministic: adjacency follows
    arc insertion order."""
    cap = [dict(d) for d in residual]
    flow = 0
    while True:
        parent: dict[int, int] = {s: -1}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == t:
                break
            for v, c in cap[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return flow
        # walk back to find the bottleneck, then push
        aug = None
        v = t
        while v != s:
            u = parent[v]
            c = cap[u][v]
            aug = c if aug is None or c < aug else aug
            v = u
        v = t
        while v != s:
            u = parent[v]
            cap[u][v] -= aug
            cap[v][u] += aug
            v = u
        flow += aug


def _flow_vertex_connectivity(g: Graph) -> int:
    """Vertex connectivity by Menger's theorem over vertex-split max-flows.

    Each vertex v becomes v_in -> v_out with capacity 1; every edge {x, y}
    contributes infinite-capacity arcs x_out -> y_in and y_out -> x_in.  For
    a minimum-degree vertex u the minimum is taken over the pairs (u, t),
    t not in N[u], and (x, y), x, y non-adjacent in N(u) (Esfahanian &
    Hakimi, Networks 1984).  g must be connected (a flow of 1 ends the
    search).  The route past DP_BANDWIDTH_LIMIT.
    """
    n = g.n
    inf = n  # any s-t vertex cut has size < n
    arcs = [(2 * v, 2 * v + 1, 1) for v in range(n)]
    for i, j in g.edges:
        arcs.append((2 * i + 1, 2 * j, inf))
        arcs.append((2 * j + 1, 2 * i, inf))
    split = _residual(2 * n, arcs)

    u = int(np.argmin(degrees(g)))
    near = neighbors(g, u)
    closed = set(near) | {u}
    pairs = [(u, t) for t in range(n) if t not in closed]
    pairs += [(x, y) for a, x in enumerate(near) for y in near[a + 1:] if not g.has_edge(x, y)]
    best = len(near)  # the degree of u bounds the connectivity
    for s, t in pairs:
        best = min(best, _max_flow(split, 2 * s + 1, 2 * t))
        if best == 1:
            return 1
    return best


def _flow_edge_connectivity(g: Graph) -> int:
    """Edge connectivity: min over t != 0 of max-flow(0, t), unit
    capacities.  The route past DP_BANDWIDTH_LIMIT."""
    n = g.n
    arcs = []
    for i, j in g.edges:
        arcs.append((i, j, 1))
        arcs.append((j, i, 1))
    network = _residual(n, arcs)
    best = n - 1
    for t in range(1, n):
        best = min(best, _max_flow(network, 0, t))
        if best == 0:
            return 0
    return best


def _window_min_cut(g: Graph, b: int, vertex_cost: np.ndarray, edge_cost: np.ndarray) -> int:
    """Least cost of a labelling of the vertices that uses both labels A and
    B: the sum of vertex_cost[label] over the vertices plus
    edge_cost[label, label] over the edges.  The labels are 0..L-1, A and B
    the last two; edge_cost is symmetric and may hold inf (forbidden).

    Sliding-window DP along the vertex order, for b >= the bandwidth (every
    edge then joins vertices at most b apart).  A state is the labels of the
    last b vertices, as a base-L number whose top digit is the oldest
    vertex, plus two flags, "A used" and "B used".  Adding vertex v with
    label c takes the minimum over the oldest label, whose digit leads and
    so spans whole blocks, then appends c as the lowest digit.  The cost of
    v depends only on which of v-b .. v-1 neighbour it, so one cost table is
    built per distinct back-pattern, the window positions of v's lower
    neighbours.  Linear in n, 4 L^(b+1) entries per vertex.
    """
    labels = len(vertex_cost)
    rest = labels ** (b - 1)
    # digit p of every state s is the label of vertex v - b + p
    digits = np.arange(labels ** b) // labels ** np.arange(b - 1, -1, -1)[:, None] % labels
    # edge_cost[c, digits[p, s]]: (L, b, L^b), the cost of v's label c
    # against position p, paid where p neighbours v
    against = edge_cost[:, digits]
    tables: dict[tuple[int, ...], np.ndarray] = {}
    label_a, label_b = labels - 2, labels - 1
    # flags: 1 = A used, 2 = B used; the window starts as label 0 padding,
    # which no back-pattern reaches
    cost = np.full((4, labels ** b), np.inf)
    cost[0, 0] = 0.0
    for v, nbrs in enumerate(g.adjacency):
        back = tuple(u - v + b for u in nbrs if u < v)
        table = tables.get(back)
        if table is None:
            table = vertex_cost[:, None] + against[:, list(back)].sum(axis=1)
            table = tables[back] = table.reshape(1, labels, labels, rest)
        # step[f, c, r]: least cost of flags f with v labelled c and the
        # newer b - 1 labels r, over the oldest label
        step = (cost.reshape(4, 1, labels, rest) + table).min(axis=2)
        # labelling v A (B) may set flag 1 (2); a state that leaves it unset
        # can only reach flags 3 by using that label again
        step[1::2, label_a] = np.minimum(step[0::2, label_a], step[1::2, label_a])
        step[2:, label_b] = np.minimum(step[:2, label_b], step[2:, label_b])
        cost = step.transpose(0, 2, 1).reshape(4, -1)
    return int(cost[3].min())


# labels (X, A, B): a separator X costs 1 per vertex and no edge joins A to B
_SEPARATOR = (np.array([1.0, 0.0, 0.0]),
              np.array([[0.0, 0.0, 0.0], [0.0, 0.0, np.inf], [0.0, np.inf, 0.0]]))
# labels (A, B): a cut costs 1 per edge that joins A to B
_CUT = (np.zeros(2), np.array([[0.0, 1.0], [1.0, 0.0]]))


def _connectivity(g: Graph, costs, flow) -> int:
    """0 for one vertex or a disconnected graph, n-1 for a complete one;
    otherwise the sliding-window DP with `costs` when the bandwidth is at
    most DP_BANDWIDTH_LIMIT, and the max-flow routine `flow` past it."""
    n = g.n
    if n == 1:
        return 0
    if g.m == n * (n - 1) // 2:  # complete
        return n - 1
    if not is_connected(g):
        return 0
    b = bandwidth(g)
    if b <= DP_BANDWIDTH_LIMIT:
        return _window_min_cut(g, b, *costs)
    return flow(g)


def vertex_connectivity(g: Graph) -> int:
    """Fewest vertices whose removal disconnects g (n-1 if g is complete):
    the least separator X that splits the rest into nonempty sides A and B
    with no edge between them."""
    return _connectivity(g, _SEPARATOR, _flow_vertex_connectivity)


def edge_connectivity(g: Graph) -> int:
    """Fewest edges whose removal disconnects g: the least number of edges
    between nonempty sides A and B that split the vertices."""
    return _connectivity(g, _CUT, _flow_edge_connectivity)


def _reach_table(g: Graph) -> np.ndarray:
    """reach[S] = max over v in S of |N(v) minus S| for every subset bitmask
    S of the vertices (0 for the empty set): one vector step per vertex over
    all 2^n subsets, counting deg(v) - |N(v) & S| and zeroing the subsets
    without v, which lie in the low half of each block of 2^(v+1)."""
    idx = np.arange(1 << g.n, dtype=np.uint32)
    reach = np.zeros(1 << g.n, dtype=np.uint8)
    for v, nbrs in enumerate(g.adjacency):
        mask = sum(1 << u for u in nbrs)
        count = np.uint8(len(nbrs)) - np.bitwise_count(idx & np.uint32(mask))
        count.reshape(-1, 2 << v)[:, :1 << v] = 0
        np.maximum(reach, count, out=reach)
    return reach


def _ceiled(limit: int) -> int:
    """The limit an exhaustive measure applies: none passes the ceiling."""
    return min(_count("limit", limit, 0), EXHAUSTIVE_CEILING)


def _refuse_above(limit: int, n: int, measure: str) -> None:
    limit = _ceiled(limit)
    if n > limit:
        raise ExhaustiveLimitError(
            f"exhaustive search refused: {measure} on n={n} exceeds limit {limit}"
        )


def robustness(g: Graph, limit: int = ROBUSTNESS_LIMIT) -> int:
    """Largest r such that every pair of nonempty disjoint subsets has an
    r-reachable member, exact in O(n 2^n).

    The pair (S1, S2) is scored max(reach[S1], reach[S2]), and for a fixed
    S1 the best S2 is the least reach over the nonempty subsets of the
    complement, h[V minus S1].  h is the subset minimum of reach, built by
    one in-place minimum per vertex that folds each subset holding v onto
    the subset without v; the empty set holds a sentinel above every reach.

    Refuses graphs with n > limit, or n > EXHAUSTIVE_CEILING whatever the
    limit (the tables hold 2^n entries).
    Disconnected graphs yield 0; a single vertex reports the definitional
    cap ceil(n/2)=1 (there are no subset pairs to constrain it).
    """
    n = g.n
    _refuse_above(limit, n, "robustness")
    if n == 1:
        return 1
    reach = _reach_table(g)
    h = reach.copy()
    h[0] = n  # reach never exceeds n - 1
    for v in range(n):
        blocks = h.reshape(-1, 2 << v)
        np.minimum(blocks[:, 1 << v:], blocks[:, :1 << v], out=blocks[:, 1 << v:])
    # S1 = 1 .. 2^n - 2 against its complement 2^n - 1 - S1 = 2^n - 2 .. 1
    full = (1 << n) - 1
    return int(np.maximum(reach[1:full], h[full - 1:0:-1]).min())


def isoperimetric_constant(g: Graph, limit: int = ISO_LIMIT) -> tuple[Fraction, float]:
    """Exhaustive isoperimetric constant min_{0<|S|<=n/2} |boundary(S)| / |S|.

    Returns the exact rational together with its float value.  Refuses
    n > limit and n > EXHAUSTIVE_CEILING.  The search is vectorized over
    all 2^n subsets, whose boundaries and sizes are filled in by bit-plane
    doubling, one byte per subset in each table: adding vertex v to a
    subset S of the vertices below v adds deg(v) edges and removes the
    2 |N(v) ∩ S| edge ends that now lie inside.  The minimum is then taken
    in exact fractions over the least boundary of each size.
    """
    n = g.n
    _refuse_above(limit, n, "isoperimetric constant")
    if n < 2:
        raise ValueError("isoperimetric constant requires n >= 2")
    total = 1 << n
    boundary = np.zeros(total, dtype=np.uint8)
    size = np.zeros(total, dtype=np.uint8)
    for v, nbrs in enumerate(g.adjacency):
        half = 1 << v
        # boundary[S + 2^v] = boundary[S] + deg(v) - 2 |N(v) & S| for
        # S < 2^v: deg(v) is added first, so no byte drops below 0, then 2
        # comes off the strided blocks of S holding each neighbour u < v
        top = boundary[half : 2 * half]
        np.add(boundary[:half], np.uint8(len(nbrs)), out=top)
        for u in nbrs:
            if u < v:
                top.reshape(-1, 2, 1 << u)[:, 1] -= 2
        np.add(size[:half], np.uint8(1), out=size[half : 2 * half])
    # the least boundary per subset size; no boundary reaches 255
    least = np.full(n + 1, 255, np.uint8)
    np.minimum.at(least, size, boundary)
    frac = min(Fraction(int(least[s]), s) for s in range(1, n // 2 + 1))
    return frac, float(frac)


# largest n for which robustness(P(n, k)) = k is checked exhaustively for
# every k <= floor(n/2) (acceptance criterion 2)
KNN_ROBUSTNESS_VERIFIED_N = 12
_UPPER_BOUND = "closed-form upper bound, not verified exhaustively: "


@dataclass
class ConnectivityReport:
    """Bundle of the connectivity measures for one graph."""

    n: int
    vertex_conn: int
    edge_conn: int
    lambda2: float | None
    robustness: int | None = None
    robustness_note: str | None = None
    iso: Fraction | None = None
    iso_note: str | None = None
    lambda2_bounds: tuple[float, float] | None = None

    def to_json_dict(self) -> dict:
        iso, bounds = self.iso, self.lambda2_bounds
        return {
            "n": self.n,
            "vertex_connectivity": self.vertex_conn,
            "edge_connectivity": self.edge_conn,
            "lambda2": self.lambda2,
            "lambda2_bounds": None if bounds is None else {"lower": bounds[0], "upper": bounds[1]},
            "robustness": self.robustness,
            "robustness_note": self.robustness_note,
            "isoperimetric": None if iso is None else {
                "num": iso.numerator, "den": iso.denominator, "float": float(iso)},
            "isoperimetric_note": self.iso_note,
        }


def knn_closed_forms(spec: PlatoonSpec) -> ConnectivityReport:
    """Analytic report for P(n, k): vertex connectivity = edge
    connectivity = k, robustness = min(k, ceil(n/2)) and iso = the edges
    leaving the first floor(n/2) vehicles per vehicle, which is
    k(k+1) / (2 floor(n/2)) for k <= floor(n/2).  No graph is built and no
    eigensolver runs: lambda2 is None, and lambda2_bounds its analytic bracket.

    The robustness is exact, with no note, only where an exhaustive check
    covers the pair: n <= KNN_ROBUSTNESS_VERIFIED_N and k <= floor(n/2).
    Everywhere else it is an upper bound, and its note says why: no graph is
    more robust than its minimum degree k, and no n-vertex graph is more
    than ceil(n/2)-robust.  Robustness = k fails past the table even for
    k <= floor(n/2): over n <= 22 the exhaustive value is k - 1 at P(14, 7),
    P(16, 8), P(18, 9), P(19, 9), P(20, 10), P(21, 10), P(22, 10) and
    P(22, 11), and P(9, 5) is only 4-robust.  The isoperimetric value carries
    the note for k > floor(n/2), where the front-half cut is one candidate of
    the minimum (it gives the exact value on every P(n, k) with n <= 14, but
    that is not proven beyond).
    """
    n, k = spec.n, spec.k
    nbar = n // 2
    iso_note = _UPPER_BOUND + "k > floor(n/2)" if k > nbar else None
    robustness_note = iso_note
    if n > KNN_ROBUSTNESS_VERIFIED_N and k <= nbar:
        robustness_note = f"{_UPPER_BOUND}n > {KNN_ROBUSTNESS_VERIFIED_N}"
    # vehicle i < nbar reaches i+1..min(n-1, i+k), of which those >= nbar cross
    cut = sum(max(0, min(n - 1, i + k) - nbar + 1) for i in range(nbar))
    return ConnectivityReport(
        n=n,
        vertex_conn=k,
        edge_conn=k,
        lambda2=None,
        robustness=min(k, (n + 1) // 2),
        robustness_note=robustness_note,
        iso=Fraction(cut, nbar),
        iso_note=iso_note,
        lambda2_bounds=lambda2_bounds(spec),
    )


def connectivity_report(
    g: Graph,
    *,
    limit: int | None = None,
    require_robustness: bool = False,
    require_iso: bool = False,
) -> ConnectivityReport:
    """Measure every connectivity quantity of g that fits within the limit,
    with the lambda2 bracket of P(n, k) when platoon_spec finds that g is one.

    `limit` caps both exhaustive measures, up to EXHAUSTIVE_CEILING; None
    keeps each at its default.
    A measure over it is skipped with a note, unless explicitly required, in
    which case ExhaustiveLimitError propagates before vertex or edge
    connectivity is computed.
    """
    rb_limit, iso_limit = (ROBUSTNESS_LIMIT, ISO_LIMIT) if limit is None else (_ceiled(limit),) * 2
    rb = rb_note = iso = iso_note = None
    if g.n <= rb_limit or require_robustness:
        rb = robustness(g, limit=rb_limit)
    else:
        rb_note = "skipped: n too large"
    if g.n < 2:  # no subset S with 0 < |S| <= n/2
        iso_note = "undefined: n < 2"
    elif g.n <= iso_limit or require_iso:
        iso, _ = isoperimetric_constant(g, limit=iso_limit)
    else:
        iso_note = "skipped: n too large"
    spec = platoon_spec(g)
    return ConnectivityReport(
        n=g.n,
        vertex_conn=vertex_connectivity(g),
        edge_conn=edge_connectivity(g),
        lambda2=algebraic_connectivity(g),
        robustness=rb,
        robustness_note=rb_note,
        iso=iso,
        iso_note=iso_note,
        lambda2_bounds=None if spec is None else lambda2_bounds(spec),
    )
