import json

import numpy as np
import pytest

import platoonnet.graph as graph_module
from platoonnet.graph import (
    Graph,
    GraphFormatError,
    PlatoonSpec,
    adjacency,
    build_knn_platoon,
    degrees,
    incidence,
    laplacian,
    load_graph,
    neighbors,
    save_graph,
)


def test_platoon_edge_count_formula():
    # m = n*k - k*(k+1)/2 for every valid pair
    for n in range(2, 16):
        for k in range(1, n):
            g = build_knn_platoon(PlatoonSpec(n, k))
            assert g.m == n * k - k * (k + 1) // 2, (n, k)


def test_platoon_small_example_adjacency():
    g = build_knn_platoon(PlatoonSpec(5, 2))
    expected = np.array(
        [
            [0, 1, 1, 0, 0],
            [1, 0, 1, 1, 0],
            [1, 1, 0, 1, 1],
            [0, 1, 1, 0, 1],
            [0, 0, 1, 1, 0],
        ]
    )
    assert np.array_equal(adjacency(g), expected)
    assert g.edges == ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4))


def test_platoon_degree_range():
    for n in range(3, 14):
        for k in range(1, n):
            g = build_knn_platoon(PlatoonSpec(n, k))
            deg = degrees(g)
            assert deg.min() == k
            assert deg.max() == min(2 * k, n - 1)
            # end vehicles have the fewest links
            assert deg[0] == k and deg[n - 1] == k


def test_laplacian_is_incidence_gram():
    for n, k in [(4, 1), (6, 2), (9, 4), (10, 9)]:
        g = build_knn_platoon(PlatoonSpec(n, k))
        lap = laplacian(g)
        b = incidence(g)
        assert lap.dtype == np.int64
        assert np.array_equal(lap, b @ b.T)
        assert np.array_equal(lap, lap.T)
        assert np.array_equal(lap.sum(axis=1), np.zeros(n, dtype=np.int64))


def test_incidence_orientation():
    g = Graph.from_edges(4, [(2, 0), (1, 3)])
    b = incidence(g)
    # canonical order: (0, 2) then (1, 3); head is the smaller index
    assert np.array_equal(b[:, 0], [1, 0, -1, 0])
    assert np.array_equal(b[:, 1], [0, 1, 0, -1])


def test_neighbors_sorted_and_bounds():
    g = build_knn_platoon(PlatoonSpec(7, 3))
    assert neighbors(g, 0) == [1, 2, 3]
    assert neighbors(g, 3) == [0, 1, 2, 4, 5, 6]
    assert neighbors(g, 6) == [3, 4, 5]
    with pytest.raises(ValueError):
        neighbors(g, 7)
    with pytest.raises(ValueError):
        neighbors(g, -1)


def test_edges_are_canonicalized():
    g = Graph.from_edges(5, [(3, 1), (0, 2), (2, 1)])
    assert g.edges == ((0, 2), (1, 2), (1, 3))
    assert g.has_edge(1, 3) and g.has_edge(3, 1)
    assert not g.has_edge(0, 4)


def test_graph_rejects_bad_edges():
    with pytest.raises(GraphFormatError, match="self-loop"):
        Graph.from_edges(4, [(1, 1)])
    with pytest.raises(GraphFormatError, match="out of range"):
        Graph.from_edges(4, [(0, 4)])
    with pytest.raises(GraphFormatError, match="duplicate"):
        Graph.from_edges(4, [(0, 1), (1, 0)])
    with pytest.raises(GraphFormatError):
        Graph.from_edges(0, [])


def test_graph_rejects_booleans_as_vertex_ids():
    # bool is an int subclass, but True is not vertex 1
    with pytest.raises(GraphFormatError, match="pair of integers") as info:
        Graph(3, ((0, 1), (True, 2)))
    assert info.value.edge_index == 1
    with pytest.raises(GraphFormatError, match="pair of integers"):
        Graph.from_edges(3, [(np.int64(0), False)])
    with pytest.raises(GraphFormatError, match="vertex count"):
        Graph(True, ())
    assert Graph.from_edges(3, [(np.int64(2), 1)]).edges == ((1, 2),)


def test_platoon_spec_rejects_booleans_as_sizes():
    # the rule Graph applies to vertex ids: True is not the size 1
    with pytest.raises(ValueError, match="platoon size"):
        PlatoonSpec(True, 1)
    with pytest.raises(ValueError, match="neighbor range"):
        PlatoonSpec(5, True)
    with pytest.raises(ValueError, match="neighbor range"):
        PlatoonSpec(5, np.bool_(True))
    spec = PlatoonSpec(np.int32(5), np.int64(1))
    assert (spec.n, spec.k) == (5, 1) and type(spec.n) is int and type(spec.k) is int


def test_platoon_spec_validation():
    with pytest.raises(ValueError):
        PlatoonSpec(5, 0)
    with pytest.raises(ValueError):
        PlatoonSpec(5, 5)
    with pytest.raises(ValueError):
        PlatoonSpec(1, 1)
    spec = PlatoonSpec(np.int64(6), np.int64(2))  # numpy ints are fine
    assert (spec.n, spec.k) == (6, 2)


# ---------------------------------------------------------------- file I/O


def test_save_load_round_trip(tmp_path):
    g = build_knn_platoon(PlatoonSpec(6, 2))
    path = tmp_path / "platoon.json"
    save_graph(g, path)
    assert load_graph(path) == g
    text = path.read_text()
    assert text.endswith("\n")
    # canonical file: one edge per line, lexicographic order
    edge_lines = [ln.strip().rstrip(",") for ln in text.splitlines() if ln.strip().startswith("[")]
    assert edge_lines == [f"[{i}, {j}]" for i, j in g.edges]


def test_save_empty_graph(tmp_path):
    g = Graph.from_edges(3, [])
    path = tmp_path / "empty.json"
    save_graph(g, path)
    assert json.loads(path.read_text()) == {"n": 3, "edges": []}
    assert load_graph(path) == g


def test_load_normalizes_edge_order(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"n": 4, "edges": [[3, 1], [2, 0]]}\n')
    g = load_graph(path)
    assert g.edges == ((0, 2), (1, 3))


def test_load_reports_malformed_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "n": 4,\n  "edges": [[0, 1],]\n}\n')
    with pytest.raises(GraphFormatError, match="line 3"):
        load_graph(path)


def test_load_reports_offending_edge_line(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{\n  "n": 4,\n  "edges": [\n    [0, 1],\n    [2, 2]\n  ]\n}\n')
    with pytest.raises(GraphFormatError, match=r"self-loop \[2, 2\] \(line 5\)"):
        load_graph(path)


def test_load_rejects_duplicate_in_either_orientation(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{\n  "n": 4,\n  "edges": [\n    [0, 1],\n    [1, 0]\n  ]\n}\n')
    with pytest.raises(GraphFormatError, match=r"duplicate edge \[1, 0\] \(line 5\)"):
        load_graph(path)


def test_load_rejects_out_of_range(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "edges": [[0, 3]]}\n')
    with pytest.raises(GraphFormatError, match="out of range"):
        load_graph(path)


def test_load_rejects_wrong_shape(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"edges": []}\n')
    with pytest.raises(GraphFormatError, match="'n' and 'edges'"):
        load_graph(path)
    path.write_text('{"n": 2, "edges": [[0, 1, 2]]}\n')
    with pytest.raises(GraphFormatError, match="pair of integers"):
        load_graph(path)
    path.write_text('{"n": 2, "edges": [["a", "b"]]}\n')
    with pytest.raises(GraphFormatError, match="pair of integers"):
        load_graph(path)


def test_load_rejects_booleans_as_vertex_ids(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "edges": [[true, 0], [1, 2]]}\n')
    with pytest.raises(GraphFormatError, match=r"edge #0 is not a pair of integers: \[True, 0\]"):
        load_graph(path)
    path.write_text('{"n": true, "edges": []}\n')
    with pytest.raises(GraphFormatError, match="vertex count must be a positive integer"):
        load_graph(path)


def test_load_locates_only_the_failing_edge(tmp_path, monkeypatch):
    # a valid file never searches its text for edge lines
    def refuse(*args, **kwargs):
        raise AssertionError("_locate_line called on a valid file")

    monkeypatch.setattr(graph_module, "_locate_line", refuse)
    n = 8001
    path = tmp_path / "path.json"
    save_graph(Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]), path)
    g = load_graph(path)
    assert (g.n, g.m) == (n, n - 1) and g.edges[-1] == (n - 2, n - 1)
    monkeypatch.undo()
    # the failing edge is still found: the reversed duplicate of [5, 6] sits on line 8004
    text = path.read_text().replace("    [7999, 8000]\n", "    [7999, 8000],\n    [6, 5]\n")
    path.write_text(text)
    with pytest.raises(GraphFormatError, match=r"duplicate edge \[6, 5\] \(line 8004\)"):
        load_graph(path)
