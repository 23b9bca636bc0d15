"""Undirected simple graphs and the banded k-nearest-neighbor platoon family.

Vehicles are vertices 0..n-1; a platoon P(n, k) links i and j whenever
0 < |i - j| <= k.  Edges are always kept in canonical form: (i, j) with
i < j, list sorted lexicographically.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GraphFormatError(ValueError):
    """A graph file or edge list violates the format contract.

    `edge_index` is the position of the offending edge in the input list
    and `pair` its two vertex ids as given; each is None when not known.
    """

    def __init__(self, message: str, edge_index: int | None = None,
                 pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.edge_index = edge_index
        self.pair = pair


def _is_int(v) -> bool:
    """Python or numpy integer; bool is not a vertex id, although it is an int."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _canonical_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    """Normalize an edge iterable to sorted (i, j) with i < j, checking
    integer pairs, self-loops, range, and duplicates (in either orientation).
    The only edge validator: errors carry the index of the failing edge."""
    seen = set()
    for idx, e in enumerate(edges):
        try:
            a, b = e
        except (TypeError, ValueError):
            a = b = None
        if not (_is_int(a) and _is_int(b)):
            raise GraphFormatError(f"edge #{idx} is not a pair of integers: {e!r}", idx)
        a, b = int(a), int(b)
        if a == b:
            raise GraphFormatError(f"self-loop [{a}, {b}]", idx, (a, b))
        if not (0 <= a < n and 0 <= b < n):
            raise GraphFormatError(f"edge [{a}, {b}] out of range for n={n}", idx, (a, b))
        pair = (a, b) if a < b else (b, a)
        if pair in seen:
            raise GraphFormatError(f"duplicate edge [{a}, {b}]", idx, (a, b))
        seen.add(pair)
    return tuple(sorted(seen))


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1:
            raise GraphFormatError(f"vertex count must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        canon = _canonical_edges(self.n, self.edges)
        object.__setattr__(self, "edges", canon)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        return cls(n, tuple(edges))

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    @cached_property
    def _adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for i, j in self.edges:
            a[i, j] = 1
            a[j, i] = 1
        return a

    @cached_property
    def _neighbor_lists(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(tuple(sorted(v)) for v in nbrs)

    @cached_property
    def neighbor_bitmasks(self) -> tuple[int, ...]:
        """Per-vertex neighborhoods as bitmasks (bit j set iff j adjacent).

        Used by the exhaustive subset searches; cheap to keep on the graph.
        """
        masks = [0] * self.n
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return tuple(masks)

    def has_edge(self, a: int, b: int) -> bool:
        i, j = (a, b) if a < b else (b, a)
        return bool(self._adjacency[i, j])


@dataclass(frozen=True)
class PlatoonSpec:
    """Parameters (n, k) of a k-nearest-neighbor platoon P(n, k)."""

    n: int
    k: int

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1:
            raise ValueError(f"platoon size must be a positive integer, got {self.n!r}")
        if not _is_int(self.k) or not (1 <= self.k <= self.n - 1):
            raise ValueError(
                f"neighbor range k must satisfy 1 <= k <= n-1, got k={self.k!r} for n={self.n}"
            )
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "k", int(self.k))


def build_knn_platoon(spec: PlatoonSpec) -> Graph:
    """Build P(n, k): edge (i, j) iff 0 < |i - j| <= k."""
    n, k = spec.n, spec.k
    edges = [(i, j) for i in range(n) for j in range(i + 1, min(i + k, n - 1) + 1)]
    return Graph(n, tuple(edges))


def lambda2_bounds(spec: PlatoonSpec) -> tuple[float, float]:
    """Analytic bracket for the algebraic connectivity of P(n, k):

        max{2k - n + 2, k(k+1)^2 / (16 nbar^2)}  <=  lambda2  <=  2k(k+1)/nbar

    with nbar = floor(n/2).
    """
    n, k = spec.n, spec.k
    nbar = n // 2
    lower = max(float(2 * k - n + 2), k * (k + 1) ** 2 / (16.0 * nbar * nbar))
    upper = 2.0 * k * (k + 1) / nbar
    return lower, upper


def adjacency(g: Graph) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix with zero diagonal (int64)."""
    return g._adjacency.copy()


def degrees(g: Graph) -> np.ndarray:
    """Vertex degrees (int64)."""
    return g._adjacency.sum(axis=1)


def laplacian(g: Graph) -> np.ndarray:
    """Graph Laplacian L = D - A (int64)."""
    a = g._adjacency
    return np.diag(a.sum(axis=1)) - a


def incidence(g: Graph) -> np.ndarray:
    """Oriented incidence matrix, n x m, columns in canonical edge order.

    For edge (i, j) with i < j the head is the smaller index: +1 at row i,
    -1 at row j.  Satisfies L = B @ B.T exactly in integer arithmetic.
    """
    b = np.zeros((g.n, g.m), dtype=np.int64)
    for e, (i, j) in enumerate(g.edges):
        b[i, e] = 1
        b[j, e] = -1
    return b


def neighbors(g: Graph, i: int) -> list[int]:
    """Sorted neighbor list of vertex i."""
    if not 0 <= i < g.n:
        raise ValueError(f"vertex {i} out of range for n={g.n}")
    return list(g._neighbor_lists[i])


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, by smallest vertex."""
    nb = g.neighbor_bitmasks
    unseen = (1 << g.n) - 1
    comps = []
    while unseen:
        comp = frontier = unseen & -unseen
        members = []
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            members.append(v)
            new = nb[v] & ~comp
            comp |= new
            frontier |= new
        unseen &= ~comp
        comps.append(sorted(members))
    return comps


def save_graph(g: Graph, path) -> None:
    """Write the canonical JSON form: {"n": ..., "edges": [[i, j], ...]}.

    Edges one per line, i < j, lexicographically sorted; UTF-8 with a
    trailing newline.
    """
    lines = [f"  \"n\": {g.n},"]
    if g.edges:
        lines.append("  \"edges\": [")
        body = ",\n".join(f"    [{i}, {j}]" for i, j in g.edges)
        lines.append(body)
        lines.append("  ]")
    else:
        lines.append("  \"edges\": []")
    text = "{\n" + "\n".join(lines) + "\n}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _locate_line(text: str, a: int, b: int, occurrence: int = 1) -> int | None:
    """Best-effort line number of the `occurrence`-th appearance of [a, b]."""
    pat = re.compile(r"\[\s*%d\s*,\s*%d\s*\]" % (a, b))
    for count, match in enumerate(pat.finditer(text), start=1):
        if count == occurrence:
            return text.count("\n", 0, match.start()) + 1
    return None


def read_json(path, kind: str) -> tuple[str, object]:
    """Text and parsed value of a UTF-8 JSON file.  A file that is missing,
    a directory, unreadable, not UTF-8, malformed, nested too deeply or
    holding an integer too long to parse raises GraphFormatError, the error
    load_graph's callers catch, with a message that starts with `kind` and
    names the file once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return text, json.loads(text)
    except OSError as exc:
        problem = f"cannot read file ({exc.strerror})"
    except UnicodeDecodeError as exc:
        problem = f"not UTF-8 text (byte {exc.start})"
    except json.JSONDecodeError as exc:
        problem = f"malformed JSON at line {exc.lineno}, column {exc.colno} ({exc.msg})"
    except ValueError:  # past sys.get_int_max_str_digits()
        problem = "JSON integer with too many digits to parse"
    except RecursionError:
        problem = "JSON nested too deeply to parse"
    raise GraphFormatError(f"{kind}: {problem}: {path}")


def load_graph(path) -> Graph:
    """Read a JSON graph file, reporting offending line numbers on errors.

    The graph is checked once, by the Graph validator; only the edge it
    rejects is looked up in the text."""
    text, data = read_json(path, "graph")
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise GraphFormatError(f"{path}: expected an object with 'n' and 'edges'")
    raw = data["edges"]
    if not isinstance(raw, list):
        raise GraphFormatError(f"{path}: 'edges' must be a list")
    try:
        return Graph(data["n"], raw)
    except GraphFormatError as exc:
        loc = ""
        if exc.pair is not None:
            a, b = exc.pair
            seen = raw[: exc.edge_index + 1].count([a, b])
            where = _locate_line(text, a, b, occurrence=seen)
            loc = f" (line {where})" if where is not None else ""
        raise GraphFormatError(f"{path}: {exc}{loc}", exc.edge_index, exc.pair) from exc
