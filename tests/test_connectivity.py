import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import platoonnet.connectivity as connectivity
from helpers import (
    brute_force_robustness,
    brute_force_vertex_connectivity,
    edge_sum_isoperimetric,
    is_r_reachable,
    mixed_random_graphs,
    neighbor_bitmasks,
    pair_scan_robustness,
    random_connected_graph,
    random_graph,
)
from platoonnet.connectivity import (
    DP_BANDWIDTH_LIMIT,
    EXHAUSTIVE_CEILING,
    ExhaustiveLimitError,
    ISO_LIMIT,
    ROBUSTNESS_LIMIT,
    algebraic_connectivity,
    connectivity_report,
    edge_connectivity,
    is_connected,
    isoperimetric_constant,
    knn_closed_forms,
    lambda2_bounds,
    robustness,
    vertex_connectivity,
    _reach_table,
)
from platoonnet.graph import (Graph, PlatoonSpec, bandwidth, build_knn_platoon, degrees, laplacian,
                              platoon_spec)


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


PETERSEN = Graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)


def brute_force_iso(g):
    best = None
    for size in range(1, g.n // 2 + 1):
        for S in combinations(range(g.n), size):
            ss = set(S)
            boundary = sum(1 for i, j in g.edges if (i in ss) != (j in ss))
            val = Fraction(boundary, size)
            if best is None or val < best:
                best = val
    return best


# ---------------------------------------------------------- connectivity


def test_connected_predicates():
    assert is_connected(path_graph(5))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph(1, []))


def test_known_vertex_and_edge_connectivity():
    assert vertex_connectivity(path_graph(6)) == 1
    assert edge_connectivity(path_graph(6)) == 1
    assert vertex_connectivity(cycle_graph(7)) == 2
    assert edge_connectivity(cycle_graph(7)) == 2
    assert vertex_connectivity(complete_graph(5)) == 4
    assert edge_connectivity(complete_graph(5)) == 4
    assert vertex_connectivity(PETERSEN) == 3
    assert edge_connectivity(PETERSEN) == 3
    # two triangles joined at vertex 2: cut vertex, but edge cut needs 2
    bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert vertex_connectivity(bowtie) == 1
    assert edge_connectivity(bowtie) == 2


def test_disconnected_graph_measures():
    g = Graph(4, [(0, 1), (2, 3)])
    assert vertex_connectivity(g) == 0
    assert edge_connectivity(g) == 0
    assert robustness(g) == 0
    assert algebraic_connectivity(g) == 0.0


def test_algebraic_connectivity_skips_the_eigensolver_only_when_disconnected():
    # the eigensolver's lambda2 of a disconnected graph is rounding noise
    # (-3.5e-16 on a split 700-vehicle platoon); connected graphs keep it bitwise
    rng = np.random.default_rng(2)
    seen = set()
    for _ in range(200):
        g = random_graph(rng, n_min=2, n_max=12)
        if is_connected(g):
            want = float(np.linalg.eigvalsh(laplacian(g).astype(np.float64))[1])
        else:
            want = 0.0
        assert algebraic_connectivity(g) == want, (g.n, g.edges)
        seen.add(is_connected(g))
    assert seen == {True, False}


def test_reach_table_matches_scalar_formula():
    rng = np.random.default_rng(5)
    for _ in range(60):
        g = random_graph(rng, n_min=1, n_max=12)
        nb = neighbor_bitmasks(g)
        want = [max(((nb[v] & ~s).bit_count() for v in range(g.n) if s >> v & 1), default=0)
                for s in range(1 << g.n)]
        assert _reach_table(g).tolist() == want, (g.n, g.edges)


def test_vertex_connectivity_against_brute_force():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        g = random_connected_graph(rng, n_min=4, n_max=7, avoid_complete=False)
        assert vertex_connectivity(g) == brute_force_vertex_connectivity(g), g.edges


def test_vertex_connectivity_pair_reduction_against_brute_force():
    # the Esfahanian-Hakimi pair set on connected graphs of every density,
    # complete ones included
    rng = np.random.default_rng(1984)
    for _ in range(150):
        g = random_graph(rng, n_min=2, n_max=8)
        want = brute_force_vertex_connectivity(g)
        assert vertex_connectivity(g) == want, (g.n, g.edges)
        if is_connected(g):
            assert connectivity._flow_vertex_connectivity(g) == want, (g.n, g.edges)
    # Every vertex off the cut {0, 5, 6} neighbours the minimum-degree vertex
    # 0, so only the pairs inside N(0), here (1, 3), see the cut; every pair
    # (0, t) has 4 disjoint paths.
    hub = [(0, v) for v in (1, 2, 3, 4)] + [(1, 2), (3, 4), (5, 6)]
    g = Graph(7, hub + [(s, v) for s in (5, 6) for v in (1, 2, 3, 4)])
    assert connectivity._flow_vertex_connectivity(g) == 3
    assert vertex_connectivity(g) == brute_force_vertex_connectivity(g) == 3


def count_max_flows(monkeypatch) -> list:
    """Record the (s, t) of every max-flow run from here on."""
    calls = []
    real = connectivity._max_flow

    def counted(residual, s, t):
        calls.append((s, t))
        return real(residual, s, t)

    monkeypatch.setattr(connectivity, "_max_flow", counted)
    return calls


def banded_graph(rng, n_max=14, b_max=4) -> Graph:
    """Random graph, connected or not, whose edges join vertices at most b
    apart, b <= b_max: each such pair is an edge with a probability drawn per
    graph."""
    n = int(rng.integers(1, n_max + 1))
    b = int(rng.integers(1, b_max + 1))
    p = float(rng.uniform())
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, min(n, i + b + 1))
                                if rng.uniform() < p])


def window_dp(g, costs):
    return connectivity._window_min_cut(g, bandwidth(g), *costs)


def test_connectivity_dp_matches_oracles_on_every_small_platoon(monkeypatch):
    calls = count_max_flows(monkeypatch)
    for n in range(2, 16):
        for k in range(1, n):
            g = build_knn_platoon(PlatoonSpec(n, k))
            calls.clear()
            assert (vertex_connectivity(g), edge_connectivity(g)) == (k, k), (n, k)
            # complete graphs take neither route; max-flow only past the limit
            assert bool(calls) == (DP_BANDWIDTH_LIMIT < k < n - 1), (n, k)
            assert connectivity._flow_vertex_connectivity(g) == k, (n, k)
            assert connectivity._flow_edge_connectivity(g) == k, (n, k)
            assert brute_force_vertex_connectivity(g) == k, (n, k)
            if k < n - 1:  # the DP itself, also past the limit
                assert window_dp(g, connectivity._CUT) == k, (n, k)
                if k <= 10:  # the vertex DP's window holds 3^k labellings
                    assert window_dp(g, connectivity._SEPARATOR) == k, (n, k)


def test_connectivity_dp_matches_oracles_on_random_banded_graphs(monkeypatch):
    rng = np.random.default_rng(20)
    graphs = [banded_graph(rng) for _ in range(400)]
    graphs += [Graph(1, []), Graph(2, []), Graph(2, [(0, 1)])]
    graphs += [complete_graph(n) for n in (3, 4, 5)]
    kinds = set()
    for g in graphs:
        want_vertex = brute_force_vertex_connectivity(g)
        want_edge = connectivity._flow_edge_connectivity(g)
        if is_connected(g):
            assert connectivity._flow_vertex_connectivity(g) == want_vertex, (g.n, g.edges)
        with monkeypatch.context() as patch:
            calls = count_max_flows(patch)
            assert vertex_connectivity(g) == want_vertex, (g.n, g.edges)
            assert edge_connectivity(g) == want_edge, (g.n, g.edges)
            assert not calls, (g.n, g.edges)
        kinds.add((is_connected(g), g.m == g.n * (g.n - 1) // 2))
    assert kinds == {(True, True), (True, False), (False, False)}


def test_connectivity_past_the_bandwidth_limit_runs_max_flow(monkeypatch):
    # P(30, 3) with shuffled ids: the same graph, but its edges now span
    # far more than DP_BANDWIDTH_LIMIT in the vertex order
    order = np.random.default_rng(3).permutation(30)
    platoon = build_knn_platoon(PlatoonSpec(30, 3))
    g = Graph(30, [(int(order[i]), int(order[j])) for i, j in platoon.edges])
    assert bandwidth(g) > DP_BANDWIDTH_LIMIT
    calls = count_max_flows(monkeypatch)
    assert vertex_connectivity(g) == 3 and calls
    calls.clear()
    assert edge_connectivity(g) == 3 and calls
    calls.clear()
    assert vertex_connectivity(platoon) == edge_connectivity(platoon) == 3 and not calls
    # two such platoons side by side: disconnected, so neither route runs
    pair = Graph(60, [*g.edges, *((i + 30, j + 30) for i, j in g.edges)])
    assert vertex_connectivity(pair) == edge_connectivity(pair) == 0 and not calls
    # a cut vertex and a bridge, past the limit
    hinged = Graph(19, [(0, 9), (9, 18), (0, 18), (9, 1), (1, 2), (2, 9)]
                              + [(v, v + 1) for v in range(2, 8)] + [(8, 10)]
                              + [(v, v + 1) for v in range(10, 17)])
    assert bandwidth(hinged) > DP_BANDWIDTH_LIMIT
    assert vertex_connectivity(hinged) == brute_force_vertex_connectivity(hinged) == 1
    assert edge_connectivity(hinged) == 1


def test_whitney_inequalities_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_connected_graph(rng, n_min=4, n_max=9, avoid_complete=False)
        kv = vertex_connectivity(g)
        ke = edge_connectivity(g)
        assert kv <= ke <= int(degrees(g).min())


# ------------------------------------------------------------- robustness


def test_r_reachable_examples():
    g = build_knn_platoon(PlatoonSpec(5, 2))
    # vertex 0 has both neighbors {1, 2} outside {0, 4}
    assert is_r_reachable(g, [0, 4], 2)
    assert not is_r_reachable(g, [0, 4], 3)
    assert is_r_reachable(g, range(5), 0)
    assert not is_r_reachable(g, range(5), 1)  # nothing outside the full set
    with pytest.raises(ValueError):
        is_r_reachable(g, [], 1)
    with pytest.raises(ValueError):
        is_r_reachable(g, [5], 1)


def test_robustness_against_brute_force():
    rng = np.random.default_rng(99)
    graphs = [Graph(1, [])] + [random_graph(rng, n_min=2, n_max=9) for _ in range(60)]
    for g in graphs:
        assert robustness(g) == brute_force_robustness(g), (g.n, g.edges)
    assert not all(is_connected(g) for g in graphs)


def test_robustness_against_pair_scan():
    rng = np.random.default_rng(2)
    graphs = [random_graph(rng, n_min=1, n_max=12) for _ in range(300)]
    graphs += [build_knn_platoon(PlatoonSpec(n, k)) for n in range(2, 15) for k in range(1, n)]
    for g in graphs:
        assert robustness(g) == pair_scan_robustness(g), (g.n, g.edges)


def test_knn_robustness_beyond_half_against_brute_force():
    # the pairs past k = floor(n/2), where robustness stops tracking k
    for n in range(4, 11):
        for k in range(n // 2 + 1, n):
            g = build_knn_platoon(PlatoonSpec(n, k))
            assert robustness(g) == brute_force_robustness(g), (n, k)


def test_robustness_known_values():
    assert robustness(complete_graph(6)) == 3  # K_n is ceil(n/2)-robust
    assert robustness(complete_graph(7)) == 4
    assert robustness(cycle_graph(6)) == 1
    assert robustness(Graph(2, [(0, 1)])) == 1
    # two 4-cliques joined by a perfect matching: well connected but only
    # 1-robust (each clique refuses outside information)
    clique_a = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    clique_b = [(i + 4, j + 4) for i, j in clique_a]
    matching = [(i, i + 4) for i in range(4)]
    g = Graph(8, clique_a + clique_b + matching)
    assert vertex_connectivity(g) == 4
    assert robustness(g) == 1


def test_robustness_refuses_large_graphs():
    g = build_knn_platoon(PlatoonSpec(ROBUSTNESS_LIMIT + 1, 1))
    with pytest.raises(ExhaustiveLimitError, match="robustness"):
        robustness(g)
    small = build_knn_platoon(PlatoonSpec(8, 3))
    with pytest.raises(ExhaustiveLimitError):
        robustness(small, limit=5)
    assert robustness(small, limit=8) == robustness(small) == 3


def test_no_limit_reaches_past_the_ceiling(monkeypatch):
    # any numpy call would start a 2^23 table: the refusal must come first
    g = build_knn_platoon(PlatoonSpec(EXHAUSTIVE_CEILING + 1, 1))
    monkeypatch.setattr(connectivity, "np", None)
    with pytest.raises(ExhaustiveLimitError, match="robustness on n=23 exceeds limit 22"):
        robustness(g, limit=40)
    with pytest.raises(ExhaustiveLimitError, match="isoperimetric constant on n=23 exceeds limit 22"):
        isoperimetric_constant(g, limit=40)


def test_report_skips_past_the_ceiling_whatever_the_limit():
    # a limit above the ceiling skips what the ceiling refuses, and refuses
    # only what is required
    g = build_knn_platoon(PlatoonSpec(EXHAUSTIVE_CEILING + 1, 1))
    rep = connectivity_report(g, limit=40)
    assert (rep.robustness, rep.robustness_note) == (None, "skipped: n too large")
    assert (rep.iso, rep.iso_note) == (None, "skipped: n too large")
    assert rep.vertex_conn == 1
    with pytest.raises(ExhaustiveLimitError) as exc:
        connectivity_report(g, limit=40, require_robustness=True)
    assert str(exc.value) == "exhaustive search refused: robustness on n=23 exceeds limit 22"


# ----------------------------------------------------------- isoperimetric


def test_iso_worked_examples():
    frac, val = isoperimetric_constant(build_knn_platoon(PlatoonSpec(4, 1)))
    assert frac == Fraction(1, 2) and val == 0.5
    frac, _ = isoperimetric_constant(complete_graph(4))
    assert frac == Fraction(2, 1)
    frac, _ = isoperimetric_constant(build_knn_platoon(PlatoonSpec(5, 2)))
    assert frac == Fraction(3, 2)
    frac, _ = isoperimetric_constant(cycle_graph(6))
    assert frac == Fraction(2, 3)


def test_iso_against_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_connected_graph(rng, n_min=2, n_max=8, avoid_complete=False)
        frac, val = isoperimetric_constant(g)
        assert frac == brute_force_iso(g), g.edges
        assert val == float(frac)


def test_iso_subset_doubling_against_edge_sum():
    rng = np.random.default_rng(300)
    for _ in range(300):
        g = random_graph(rng, n_min=2, n_max=12)
        frac, val = isoperimetric_constant(g)
        assert frac == edge_sum_isoperimetric(g), (g.n, g.edges)
        assert val == float(frac)
    g = build_knn_platoon(PlatoonSpec(20, 4))
    assert isoperimetric_constant(g)[0] == edge_sum_isoperimetric(g) == 1


def test_iso_byte_table_headroom_on_complete_and_dense_graphs():
    # K_22 reaches the largest boundary of any graph within the ceiling,
    # 11 * 11 = 121 at |S| = 11, and 142 before a subtraction
    assert isoperimetric_constant(complete_graph(22), limit=22)[0] == 11
    assert isoperimetric_constant(complete_graph(21))[0] == 11  # ceil(n/2)
    rng = np.random.default_rng(22)
    for _ in range(30):
        n = int(rng.integers(14, 17))
        p = float(rng.uniform(0.7, 1.0))
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                 if rng.uniform() < p])
        assert isoperimetric_constant(g)[0] == edge_sum_isoperimetric(g), (g.n, g.edges)


def test_iso_holds_one_byte_per_subset():
    # two uint8 tables of 2^20 entries are 2 MiB; numpy reports its buffers
    # to tracemalloc, so the peak is deterministic
    g = build_knn_platoon(PlatoonSpec(20, 4))
    tracemalloc.start()
    try:
        isoperimetric_constant(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 << 20, peak


def test_knn_iso_closed_form_against_exhaustive():
    # the front-half cut is exact on every P(n, k) here: on both sides of
    # k = floor(n/2) up to n = 14, e.g. P(12, 11) -> 6 where
    # k(k+1)/(2 floor(n/2)) gives 11, and for k <= floor(n/2) up to ISO_LIMIT
    cells = [(n, k) for n in range(4, 15) for k in range(1, n)]
    cells += [(n, k) for n in range(15, ISO_LIMIT + 1) for k in range(1, n // 2 + 1)]
    for n, k in cells:
        spec = PlatoonSpec(n, k)
        exact, _ = isoperimetric_constant(build_knn_platoon(spec))
        assert knn_closed_forms(spec).iso == exact, (n, k)
    assert knn_closed_forms(PlatoonSpec(12, 11)).iso == 6


def test_iso_refuses_large_graphs():
    g = build_knn_platoon(PlatoonSpec(ISO_LIMIT + 1, 1))
    with pytest.raises(ExhaustiveLimitError, match="isoperimetric"):
        isoperimetric_constant(g)
    with pytest.raises(ValueError):
        isoperimetric_constant(Graph(1, []))


# ---------------------------------------------------------------- spectra


def test_lambda2_closed_forms():
    for n in range(2, 12):
        lam = algebraic_connectivity(path_graph(n))
        assert abs(lam - 2.0 * (1.0 - math.cos(math.pi / n))) < 1e-9
        lam = algebraic_connectivity(cycle_graph(max(n, 3)))
        assert abs(lam - 2.0 * (1.0 - math.cos(2.0 * math.pi / max(n, 3)))) < 1e-9
        assert abs(algebraic_connectivity(complete_graph(n)) - n) < 1e-9
    assert abs(algebraic_connectivity(PETERSEN) - 2.0) < 1e-9


def test_lambda2_bounds_bracket_platoons():
    for n in range(4, 15):
        for k in range(1, n):
            spec = PlatoonSpec(n, k)
            lo, hi = lambda2_bounds(spec)
            lam = algebraic_connectivity(build_knn_platoon(spec))
            assert lo - 1e-9 <= lam <= hi + 1e-9, (n, k, lo, lam, hi)


# ---------------------------------------------------------------- reports


def test_connectivity_report_full():
    g = build_knn_platoon(PlatoonSpec(10, 3))
    rep = connectivity_report(g)
    assert rep.vertex_conn == rep.edge_conn == rep.robustness == 3
    assert rep.iso == Fraction(6, 5)
    assert rep.robustness_note is None and rep.iso_note is None
    d = rep.to_json_dict()
    assert d["vertex_connectivity"] == 3
    assert d["isoperimetric"] == {"num": 6, "den": 5, "float": 1.2}
    assert d["lambda2_bounds"]["lower"] <= d["lambda2"] <= d["lambda2_bounds"]["upper"]


def test_report_brackets_lambda2_exactly_where_the_graph_is_a_platoon():
    graphs = mixed_random_graphs(25, 300)
    graphs.append(build_knn_platoon(PlatoonSpec(30, 1)))
    for g in graphs:
        rep = connectivity_report(g)
        spec = platoon_spec(g)
        assert rep.lambda2_bounds == (None if spec is None else lambda2_bounds(spec))
        if rep.lambda2_bounds is not None:
            lo, hi = rep.lambda2_bounds
            assert lo - 1e-9 <= rep.lambda2 <= hi + 1e-9, (g.n, g.edges)
    assert rep.lambda2_bounds == lambda2_bounds(PlatoonSpec(30, 1))


def test_connectivity_report_skips_with_note():
    g = build_knn_platoon(PlatoonSpec(ROBUSTNESS_LIMIT + 1, 2))
    rep = connectivity_report(g)
    assert rep.robustness is None
    assert rep.robustness_note == "skipped: n too large"
    assert rep.iso is not None  # within the iso limit
    with pytest.raises(ExhaustiveLimitError):
        connectivity_report(g, require_robustness=True)


@pytest.mark.parametrize("limit", [None, 0, 22])
@pytest.mark.parametrize("require_iso", [False, True])
def test_connectivity_report_of_one_vehicle(limit, require_iso):
    # no subset S with 0 < |S| <= n/2: the isoperimetric constant is undefined,
    # whatever the limit, and robustness reports its definitional cap
    g = Graph(1, [])
    rep = connectivity_report(g, limit=limit, require_iso=require_iso)
    assert rep.iso is None and rep.iso_note == "undefined: n < 2"
    assert rep.to_json_dict()["isoperimetric"] is None
    assert rep.robustness == (None if limit == 0 else 1)
    with pytest.raises(ValueError, match="n >= 2"):
        isoperimetric_constant(g)


@pytest.mark.parametrize("limit", [None, 0, 8, 19, 22])
def test_one_limit_caps_both_measures(limit):
    # limit=None leaves each measure at its own default limit; a measure over
    # its limit is skipped with a note, or refused when it is required
    skipped = (None, "skipped: n too large")
    rb_limit = ROBUSTNESS_LIMIT if limit is None else limit
    iso_limit = ISO_LIMIT if limit is None else limit
    for n, k in ((2, 1), (8, 3), (9, 4), (20, 3)):
        g = build_knn_platoon(PlatoonSpec(n, k))
        rep = connectivity_report(g, limit=limit)
        want_rb = (robustness(g, limit=rb_limit), None) if n <= rb_limit else skipped
        want_iso = (isoperimetric_constant(g, limit=iso_limit)[0], None) if n <= iso_limit else skipped
        assert (rep.robustness, rep.robustness_note) == want_rb, (n, limit)
        assert (rep.iso, rep.iso_note) == want_iso, (n, limit)
        for required, own in (("robustness", rb_limit), ("iso", iso_limit)):
            if n > own:
                with pytest.raises(ExhaustiveLimitError):
                    connectivity_report(g, limit=limit, **{f"require_{required}": True})


def test_knn_closed_forms_and_caveat():
    rep = knn_closed_forms(PlatoonSpec(12, 4))
    assert rep.vertex_conn == rep.edge_conn == rep.robustness == 4
    assert rep.iso == Fraction(4 * 5, 2 * 6)
    assert rep.robustness_note is None
    # beyond k = floor(n/2) the closed forms are flagged as unverified
    rep = knn_closed_forms(PlatoonSpec(12, 7))
    assert rep.robustness == 6  # capped at ceil(n/2)
    assert rep.iso == Fraction(13, 3)  # front-half cut: 26 edges over 6 vehicles
    assert rep.robustness_note == (
        "closed-form upper bound, not verified exhaustively: k > floor(n/2)")
    assert rep.iso_note == rep.robustness_note
    # only the closed forms: no graph, no eigensolve
    assert rep.lambda2 is None and rep.lambda2_bounds == lambda2_bounds(PlatoonSpec(12, 7))


# P(n, k) with k <= floor(n/2) past the exhaustive table that are less than
# k-robust, each with a witness: two disjoint subsets in which no vertex has
# k neighbors outside its own set.
ROBUSTNESS_BELOW_K = {
    (14, 7): ([2, 3, 4, 9, 10, 11], [0, 1, 5, 6, 7, 8, 12, 13]),
    (16, 8): ([2, 3, 4, 5, 10, 11, 12], [0, 1, 6, 7, 8, 9, 13, 14, 15]),
    (18, 9): ([2, 3, 4, 5, 6, 11, 12, 13], [0, 1, 7, 8, 9, 10, 14, 15, 16, 17]),
    (19, 9): ([3, 4, 5, 6, 12, 13, 14, 15], [0, 1, 2, 7, 8, 9, 10, 11, 16, 17, 18]),
    (20, 10): ([2, 3, 4, 5, 6, 7, 12, 13, 14], [0, 1, 8, 9, 10, 11, 15, 16, 17, 18, 19]),
    (21, 10): ([3, 4, 5, 6, 7, 13, 14, 15, 16], [0, 1, 2, 8, 9, 10, 11, 12, 17, 18, 19, 20]),
    (22, 10): ([1, 2, 3, 8, 9, 10, 11, 12, 13, 18, 19, 20],
               [0, 4, 5, 6, 7, 14, 15, 16, 17, 21]),
    (22, 11): ([2, 3, 4, 5, 6, 7, 8, 13, 14, 15],
               [0, 1, 9, 10, 11, 12, 16, 17, 18, 19, 20, 21]),
}

# exact robustness of P(n, k) for k = 1 .. n-1, past acceptance criterion 2's
# table and up to the default limit
KNN_ROBUSTNESS_ROWS = {
    13: (1, 2, 3, 4, 5, 6, 6, 6, 7, 7, 7, 7),
    14: (1, 2, 3, 4, 5, 6, 6, 7, 7, 7, 7, 7, 7),
    15: (1, 2, 3, 4, 5, 6, 7, 7, 7, 8, 8, 8, 8, 8),
    16: (1, 2, 3, 4, 5, 6, 7, 7, 8, 8, 8, 8, 8, 8, 8),
    17: (1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 8, 9, 9, 9, 9, 9),
    18: (1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 9, 9, 9, 9, 9, 9, 9),
    19: (1, 2, 3, 4, 5, 6, 7, 8, 8, 9, 9, 9, 10, 10, 10, 10, 10, 10),
}


def test_knn_exact_robustness_past_the_table():
    below = set()
    for n, row in KNN_ROBUSTNESS_ROWS.items():
        got = tuple(robustness(build_knn_platoon(PlatoonSpec(n, k))) for k in range(1, n))
        assert got == row, n
        below |= {(n, k) for k in range(1, n // 2 + 1) if row[k - 1] < k}
    assert below == {cell for cell in ROBUSTNESS_BELOW_K if cell[0] <= ROBUSTNESS_LIMIT}
    # past the default limit only the cells below k are pinned (full rows
    # for n = 20..22 take ~10 s)
    for n, k in (cell for cell in ROBUSTNESS_BELOW_K if cell[0] > ROBUSTNESS_LIMIT):
        assert robustness(build_knn_platoon(PlatoonSpec(n, k)), limit=22) == k - 1, (n, k)


def test_knn_closed_form_robustness_is_flagged_past_the_table():
    unverified = "closed-form upper bound, not verified exhaustively: n > 12"
    for (n, k), (s1, s2) in ROBUSTNESS_BELOW_K.items():
        g = build_knn_platoon(PlatoonSpec(n, k))
        assert not set(s1) & set(s2)
        assert not is_r_reachable(g, s1, k) and not is_r_reachable(g, s2, k), (n, k)
        rep = knn_closed_forms(PlatoonSpec(n, k))
        assert rep.robustness == k and rep.robustness_note == unverified, (n, k)
        assert rep.iso_note is None  # the isoperimetric note still follows k > floor(n/2)
    rep = knn_closed_forms(PlatoonSpec(30, 15))
    assert rep.robustness == 15 and rep.robustness_note == unverified
    assert knn_closed_forms(PlatoonSpec(13, 1)).robustness_note == unverified
    # no note exactly where the exhaustive table covers the pair
    for n in range(2, 13):
        for k in range(1, n):
            assert (knn_closed_forms(PlatoonSpec(n, k)).robustness_note is None) == (k <= n // 2)
    for n in (2, 3):  # below acceptance criterion 2's range
        assert robustness(build_knn_platoon(PlatoonSpec(n, 1))) == 1
