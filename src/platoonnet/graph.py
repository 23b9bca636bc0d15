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

# Largest vertex count a Graph or PlatoonSpec takes: a huge n is refused
# before any vertex-sized structure is built.  Below it the dense n x n
# matrices (laplacian, the formation system) are not bounded: 32 GiB of float64
# for one 2^16-vertex Laplacian.
MAX_VERTICES = 1 << 16


class GraphFormatError(ValueError):
    """A graph file, graph object, edge list or platoon spec breaks its contract.

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


def _vehicle_id(v) -> int:
    """v as an int: a Python or numpy integer, not a bool.  Anything else,
    2.5 say, is refused rather than truncated."""
    if not _is_int(v):
        raise ValueError(f"vehicle id must be an integer, got {v!r}")
    return int(v)


def _vertex(g: Graph, i) -> int:
    """i as an int, checked to be a vertex id of g."""
    i = _vehicle_id(i)
    if not 0 <= i < g.n:
        raise ValueError(f"vertex {i} out of range for n={g.n}")
    return i


def _count(name: str, value, least: int) -> int:
    """value as an int: an integer, not a bool, and at least `least`.  The
    library's one rule for fault bounds, horizons, step counts and seeds."""
    if not _is_int(value) or value < least:
        raise ValueError(f"{name} must be >= {least} and an integer, got {value!r}")
    return int(value)


def _vector(name: str, value, size: int) -> np.ndarray:
    """value as a float64 vector of `size` entries: a scalar is not broadcast."""
    value = np.asarray(value, dtype=np.float64)
    if value.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},)")
    return value


def _distinct(ids, what: str) -> tuple[int, ...]:
    """The vehicle ids as a sorted tuple, each given once.  A caller with a
    graph passes each id through _vertex first."""
    ids = tuple(sorted(map(_vehicle_id, ids)))
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate {what} vehicles")
    return ids


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
        if self.n > MAX_VERTICES:
            raise GraphFormatError(f"vertex count must be at most {MAX_VERTICES}")
        object.__setattr__(self, "n", int(self.n))
        canon = _canonical_edges(self.n, self.edges)
        object.__setattr__(self, "edges", canon)

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuple of every vertex: the graph's one adjacency
        view.  The edges are sorted, so each vertex meets its lower
        neighbours first and every list is built in ascending order."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(map(tuple, nbrs))

    def has_edge(self, a: int, b: int) -> bool:
        return _vertex(self, b) in self.adjacency[_vertex(self, a)]


@dataclass(frozen=True)
class PlatoonSpec:
    """Parameters (n, k) of a k-nearest-neighbor platoon P(n, k)."""

    n: int
    k: int

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1:
            raise GraphFormatError(f"platoon size must be a positive integer, got {self.n!r}")
        if self.n > MAX_VERTICES:
            raise GraphFormatError(f"platoon size must be at most {MAX_VERTICES}")
        if not _is_int(self.k) or not (1 <= self.k <= self.n - 1):
            raise GraphFormatError(
                f"neighbor range k must satisfy 1 <= k <= n-1, got k={self.k!r} for n={self.n}"
            )
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "k", int(self.k))


def build_knn_platoon(spec: PlatoonSpec) -> Graph:
    """Build P(n, k): edge (i, j) iff 0 < |i - j| <= k."""
    n, k = spec.n, spec.k
    # a generator: Graph's edge check consumes it once, so no edge list is kept beside it
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, min(i + k, n - 1) + 1)))


def bandwidth(g: Graph) -> int:
    """Largest j - i over the edges (i, j): every edge joins two vertices at
    most this far apart in the vertex order."""
    return max((j - i for i, j in g.edges), default=0)


def platoon_spec(g: Graph) -> PlatoonSpec | None:
    """The spec build_knn_platoon turns into g, or None.  With k the bandwidth,
    g lies inside P(n, k), so it is P(n, k) when it has k n - k(k+1)/2 edges."""
    k = bandwidth(g)
    return PlatoonSpec(g.n, k) if k and g.m == k * g.n - k * (k + 1) // 2 else None


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


def degrees(g: Graph) -> np.ndarray:
    """Vertex degrees (int64)."""
    return np.fromiter(map(len, g.adjacency), np.int64, g.n)


def _endpoints(g: Graph) -> np.ndarray:
    """The canonical edges as a (2, m) index array: rows i and j of (i, j)."""
    return np.array(g.edges, dtype=np.intp).reshape(-1, 2).T


def laplacian(g: Graph) -> np.ndarray:
    """Graph Laplacian L = D - A (float64: every entry is an integer of at
    most 2^16 in magnitude, exact in a double)."""
    lap = np.zeros((g.n, g.n))
    i, j = _endpoints(g)
    lap[i, j] = lap[j, i] = -1.0
    np.fill_diagonal(lap, degrees(g))
    return lap


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue (dense symmetric eigensolver).

    Exactly 0.0 for one vertex or a disconnected graph, whose Laplacian has
    one zero eigenvalue per component (eigvalsh can leave a residue such as
    4e-17 for the second); the eigensolver is not run.
    """
    if g.n < 2 or len(components(g)) > 1:
        return 0.0
    w = np.linalg.eigvalsh(laplacian(g))
    return float(w[1])


def incidence(g: Graph) -> np.ndarray:
    """Oriented incidence matrix, n x m, columns in canonical edge order.

    For edge (i, j) with i < j the head is the smaller index: +1 at row i,
    -1 at row j.  Satisfies L = B @ B.T exactly.
    """
    b = np.zeros((g.n, g.m), dtype=np.int64)
    b[_endpoints(g), np.arange(g.m)] = [[1], [-1]]  # column e: +1 at i, -1 at j
    return b


def neighbors(g: Graph, i: int) -> list[int]:
    """Sorted neighbor list of vertex i."""
    return list(g.adjacency[_vertex(g, i)])


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, by smallest vertex: a
    stack search from each vertex not yet reached."""
    adj = g.adjacency
    seen = bytearray(g.n)
    comps = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = 1
        stack, members = [root], []
        while stack:
            v = stack.pop()
            members.append(v)
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)
        comps.append(sorted(members))
    return comps


def save_graph(g: Graph, path) -> None:
    """Write the canonical JSON form: {"n": ..., "edges": [[i, j], ...]}.

    Edges one per line, i < j, lexicographically sorted; UTF-8 with a
    trailing newline.
    """
    body = ",\n".join(f"    [{i}, {j}]" for i, j in g.edges)
    edges = f"[\n{body}\n  ]" if g.edges else "[]"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n  "n": {g.n},\n  "edges": {edges}\n}}\n')


def _locate_line(text: str, a: int, b: int, occurrence: int = 1) -> int | None:
    """Best-effort line number of the `occurrence`-th appearance of [a, b],
    its ids in any JSON spelling (0 as `-0`, 2 as `2.0`).  Every innermost
    bracket before the failing edge's holds a checked edge."""
    matches = (m for m in re.finditer(r"\[[^][]*\]", text) if json.loads(m.group()) == [a, b])
    for count, match in enumerate(matches, start=1):
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


def _whole(v):
    """v, or the int it spells when v is an integral float such as 4.0."""
    return int(v) if isinstance(v, float) and v.is_integer() else v


def graph_from_json(data) -> Graph:
    """The Graph of a parsed JSON graph object, inline or read from a file:
    {"n": N, "edges": [[i, j], ...]} or {"platoon": [n, k]}, with no other
    key.  An integral number such as 4.0 is read as the integer 4; Graph and
    PlatoonSpec check every value.  Every error is a GraphFormatError, whose
    edge_index locates a failing edge."""
    keys = set(data) if isinstance(data, dict) else None
    if keys == {"platoon"}:
        pair = data["platoon"]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise GraphFormatError(f"'platoon' must be a list [n, k], got {pair!r}")
        return build_knn_platoon(PlatoonSpec(*map(_whole, pair)))
    if keys != {"n", "edges"}:
        raise GraphFormatError("expected an object with 'n' and 'edges' or with 'platoon', "
                               "and no other key")
    n, edges = _whole(data["n"]), data["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError("'edges' must be a list")
    try:
        return Graph(n, edges)
    except GraphFormatError as exc:  # an id spelled 3.0, say: a second pass reads it as 3
        if exc.pair is not None:
            raise
        return Graph(n, [[_whole(v) for v in e] if isinstance(e, list) else e for e in edges])


def load_graph(path) -> Graph:
    """Read a JSON graph file: any object graph_from_json takes.  Its errors
    name the file, and the line of a failing edge, which is looked up in the
    text only then."""
    text, data = read_json(path, "graph")
    try:
        return graph_from_json(data)
    except GraphFormatError as exc:
        loc = ""
        if exc.pair is not None:
            a, b = exc.pair
            seen = data["edges"][: exc.edge_index + 1].count([a, b])
            where = _locate_line(text, a, b, occurrence=seen)
            loc = f" (line {where})" if where is not None else ""
        raise GraphFormatError(f"{path}: {exc}{loc}", exc.edge_index, exc.pair) from exc
