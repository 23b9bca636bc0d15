import json
import tracemalloc

import networkx as nx
import numpy as np
import pytest

import platoonnet.graph as graph_module
from helpers import (missing_edges, mixed_random_graphs, neighbor_bitmasks, neighbor_lists,
                     random_graph)
from platoonnet.formation import build_formation
from platoonnet.graph import (
    Graph,
    GraphFormatError,
    PlatoonSpec,
    algebraic_connectivity,
    bandwidth,
    build_knn_platoon,
    components,
    degrees,
    incidence,
    laplacian,
    load_graph,
    neighbors,
    platoon_spec,
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
    assert np.array_equal(np.diag(degrees(g)) - laplacian(g), expected)
    assert [[int(g.has_edge(i, j)) for j in range(5)] for i in range(5)] == expected.tolist()
    assert g.edges == ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4))


def test_matrix_views_agree_with_networkx():
    # laplacian, degrees and has_edge all read the edge list; networkx's
    # adjacency matrix is an independent reading of the same edges
    rng = np.random.default_rng(11)
    graphs = [Graph(1, [])] + [random_graph(rng, 2, 12) for _ in range(120)]
    connected = [len(components(g)) == 1 for g in graphs]
    assert 20 <= sum(connected) <= len(graphs) - 20  # both kinds are drawn
    for g in graphs:
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        adj = nx.to_numpy_array(nxg, nodelist=range(g.n), dtype=np.int64)
        deg, lap = degrees(g), laplacian(g)
        assert deg.dtype == np.int64 and lap.dtype == np.float64
        assert np.array_equal(lap, np.trunc(lap))  # integral entries, exact in a double
        assert np.array_equal(deg, adj.sum(axis=1))
        assert np.array_equal(lap, np.diag(adj.sum(axis=1)) - adj)
        assert [[g.has_edge(i, j) for j in range(g.n)] for i in range(g.n)] == (adj == 1).tolist()
        # one lambda2: the formation's is the connectivity measure, bit for bit
        lam2 = algebraic_connectivity(g)
        assert build_formation(g, 5.0, 10.0).lambda2.hex() == lam2.hex()
        assert (lam2 > 0) == (g.n > 1 and nx.is_connected(nxg))


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
        assert lap.dtype == np.float64 and np.array_equal(lap, np.trunc(lap))
        assert np.array_equal(lap, b @ b.T)
        assert np.array_equal(lap, lap.T)
        assert np.array_equal(lap.sum(axis=1), np.zeros(n, dtype=np.int64))


def test_incidence_orientation():
    g = Graph(4, [(2, 0), (1, 3)])
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


def test_bitmask_neighbors_and_degrees_match_the_edge_lists():
    # random graphs, connected or not, plus isolated vertices and masks of
    # many machine words
    rng = np.random.default_rng(19)
    graphs = [random_graph(rng, 1, 12) for _ in range(150)] + [random_graph(rng, 100, 140)]
    graphs += [Graph(1, ()), Graph(6, ((1, 4),)), Graph(70, ((0, 69), (3, 64)))]
    for g in graphs:
        lists = neighbor_lists(g)
        assert [neighbors(g, i) for i in range(g.n)] == lists
        assert degrees(g).tolist() == [len(v) for v in lists]
        for bad in (-1, g.n, g.n + 64):
            with pytest.raises(ValueError, match=f"^vertex {bad} out of range for n={g.n}$"):
                neighbors(g, bad)


def test_adjacency_and_components_match_the_oracles():
    # the adjacency against the sorted edge lists and the bitmask view, and
    # components against networkx, on random graphs and every P(n, k), n <= 40
    graphs = [Graph(1, ())] + mixed_random_graphs(25, 300)
    graphs += [build_knn_platoon(PlatoonSpec(n, k)) for n in range(2, 41) for k in range(1, n)]
    for g in graphs:
        assert g.adjacency == tuple(map(tuple, neighbor_lists(g))), (g.n, g.edges)
        assert [sum(1 << u for u in nbrs) for nbrs in g.adjacency] == neighbor_bitmasks(g)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        assert components(g) == sorted(sorted(c) for c in nx.connected_components(nxg))


def test_adjacency_reads_stay_small_on_a_long_platoon():
    # the adjacency grows with n + m; one n-bit mask per vertex would take
    # ~n^2 / 16 bytes, an 18 MiB peak here
    g = build_knn_platoon(PlatoonSpec(16384, 3))
    tracemalloc.start()
    try:
        components(g)
        degrees(g)
        for i in range(g.n):
            neighbors(g, i)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


def test_building_a_long_platoon_keeps_no_second_edge_list():
    # the graph keeps ~5 MiB; an edge list held beside the check's pair set
    # peaked at 10.6 MiB, the generator the check consumes at 7.3 MiB
    spec = PlatoonSpec(16384, 3)
    tracemalloc.start()
    try:
        g = build_knn_platoon(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 << 20, peak
    n = spec.n
    assert g.edges == tuple((i, j) for i in range(n) for j in range(i + 1, min(i + 3, n - 1) + 1))


@pytest.mark.parametrize("bad", [-1, 5, 9])
def test_has_edge_checks_its_vertex_ids(bad):
    # -1 must not wrap to the last vehicle, and an id past n is no vertex
    g = build_knn_platoon(PlatoonSpec(5, 2))
    for a, b in ((bad, 2), (0, bad)):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range for n=5"):
            g.has_edge(a, b)


def test_edges_are_canonicalized():
    g = Graph(5, [(3, 1), (0, 2), (2, 1)])
    assert g.edges == ((0, 2), (1, 2), (1, 3))
    assert g.has_edge(1, 3) and g.has_edge(3, 1)
    assert not g.has_edge(0, 4)


def test_graph_rejects_bad_edges():
    with pytest.raises(GraphFormatError, match="self-loop"):
        Graph(4, [(1, 1)])
    with pytest.raises(GraphFormatError, match="out of range"):
        Graph(4, [(0, 4)])
    with pytest.raises(GraphFormatError, match="duplicate"):
        Graph(4, [(0, 1), (1, 0)])
    with pytest.raises(GraphFormatError):
        Graph(0, [])


def test_graph_rejects_booleans_as_vertex_ids():
    # bool is an int subclass, but True is not vertex 1
    with pytest.raises(GraphFormatError, match="pair of integers") as info:
        Graph(3, ((0, 1), (True, 2)))
    assert info.value.edge_index == 1
    with pytest.raises(GraphFormatError, match="pair of integers"):
        Graph(3, [(np.int64(0), False)])
    with pytest.raises(GraphFormatError, match="vertex count"):
        Graph(True, ())
    assert Graph(3, [(np.int64(2), 1)]).edges == ((1, 2),)


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


def test_vertex_count_ceiling():
    # checked before build_knn_platoon lists the n k edges or Graph its masks
    assert graph_module.MAX_VERTICES == 65536
    assert PlatoonSpec(65536, 3).n == Graph(65536, ()).n == 65536
    with pytest.raises(GraphFormatError, match="^platoon size must be at most 65536$"):
        PlatoonSpec(65537, 3)
    with pytest.raises(GraphFormatError, match="^vertex count must be at most 65536$"):
        Graph(10**21, ())


def test_platoon_spec_inverts_build_knn_platoon():
    for n in range(2, 41):
        for k in range(1, n):
            spec = PlatoonSpec(n, k)
            g = build_knn_platoon(spec)
            assert platoon_spec(g) == spec, (n, k)
            # the reversal i -> n - 1 - i maps P(n, k) onto itself
            assert platoon_spec(Graph(n, [(n - 1 - j, n - 1 - i) for i, j in g.edges])) == spec


def test_platoon_spec_on_random_graphs():
    # recognised exactly when the graph is the platoon of its own bandwidth
    found = 0
    for g in mixed_random_graphs(25, 300):
        k = bandwidth(g)
        is_platoon = k > 0 and g == build_knn_platoon(PlatoonSpec(g.n, k))
        assert platoon_spec(g) == (PlatoonSpec(g.n, k) if is_platoon else None), (g.n, g.edges)
        found += is_platoon
    assert 10 <= found <= 290  # both kinds are drawn


def test_platoon_spec_refuses_graphs_that_are_no_platoon_in_their_order():
    assert platoon_spec(Graph(1, [])) is None
    assert platoon_spec(Graph(5, [])) is None
    for n in range(2, 13):
        complete = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        assert platoon_spec(complete) == PlatoonSpec(n, n - 1)
        for k in range(1, n):
            g = build_knn_platoon(PlatoonSpec(n, k))
            # one edge less or more: only the edge (0, n - 1), the one edge
            # of K_n longer than n - 2, turns P(n, n - 1) into P(n, n - 2)
            # and back
            for e in g.edges:
                want = PlatoonSpec(n, n - 2) if e == (0, n - 1) and n > 2 else None
                assert platoon_spec(Graph(n, [f for f in g.edges if f != e])) == want, (n, k, e)
            for e in missing_edges(g):
                want = PlatoonSpec(n, n - 1) if e == (0, n - 1) and k == n - 2 else None
                assert platoon_spec(Graph(n, [*g.edges, e])) == want, (n, k, e)
    # the same platoon with shuffled ids
    for n, k in ((10, 3), (20, 2), (30, 3), (40, 7)):
        order = np.random.default_rng(3).permutation(n)
        edges = build_knn_platoon(PlatoonSpec(n, k)).edges
        assert platoon_spec(Graph(n, [(int(order[i]), int(order[j])) for i, j in edges])) is None


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
    g = Graph(3, [])
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
    # JSON's -0 is the id 0, and an occurrence counts under either spelling
    path.write_text('{\n  "n": 3,\n  "edges": [[-0, 0]]\n}\n')
    with pytest.raises(GraphFormatError, match=r"self-loop \[0, 0\] \(line 3\)"):
        load_graph(path)
    path.write_text('{"n": 3, "edges": [\n  [0, 2],\n  [-0, 1],\n  [0, 1]\n]}\n')
    with pytest.raises(GraphFormatError, match=r"duplicate edge \[0, 1\] \(line 4\)"):
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


def test_load_reads_the_platoon_form_and_integral_numbers(tmp_path):
    # a graph file holds any graph object a scenario may hold inline
    path = tmp_path / "g.json"
    path.write_text('{"platoon": [6.0, 2]}\n')
    assert load_graph(path) == build_knn_platoon(PlatoonSpec(6, 2))
    path.write_text('{"n": 4.0, "edges": [[0, 1.0], [2e0, 1], [3, 2]]}\n')
    g = load_graph(path)
    assert g == Graph(4, [(0, 1), (1, 2), (2, 3)]) and type(g.n) is int
    assert all(type(v) is int for e in g.edges for v in e)
    path.write_text('{"n": 4, "edges": [], "comment": "x"}\n')
    with pytest.raises(GraphFormatError, match="and no other key"):
        load_graph(path)


def test_load_errors_name_the_file_and_the_line_under_any_spelling(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{\n  "n": 4,\n  "edges": [\n    [0, 1],\n    [2, 2.0]\n  ]\n}\n')
    with pytest.raises(GraphFormatError, match=r"^.*g\.json: self-loop \[2, 2\] \(line 5\)$"):
        load_graph(path)
    # the second [1, 0], spelled [1.0, -0], sits on line 4
    path.write_text('{"n": 3, "edges": [\n  [1, 0],\n  [0, 2],\n  [1.0, -0],\n  [2, 1]\n]}\n')
    with pytest.raises(GraphFormatError, match=r"duplicate edge \[1, 0\] \(line 4\)$"):
        load_graph(path)
    for platoon in ("[6, 6]", "[0, 1]", "[6]", "[6, 2.5]", "6"):
        path.write_text(f'{{"platoon": {platoon}}}\n')
        with pytest.raises(GraphFormatError) as info:
            load_graph(path)
        assert str(info.value).startswith(f"{path}: "), str(info.value)


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
    save_graph(Graph(n, [(i, i + 1) for i in range(n - 1)]), path)
    g = load_graph(path)
    assert (g.n, g.m) == (n, n - 1) and g.edges[-1] == (n - 2, n - 1)
    monkeypatch.undo()
    # the failing edge is still found: the reversed duplicate of [5, 6] sits on line 8004
    text = path.read_text().replace("    [7999, 8000]\n", "    [7999, 8000],\n    [6, 5]\n")
    path.write_text(text)
    with pytest.raises(GraphFormatError, match=r"duplicate edge \[6, 5\] \(line 8004\)"):
        load_graph(path)
