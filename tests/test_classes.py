"""Vertex classification under both degree-sum schemes."""

from fractions import Fraction

import pytest

import oracles
import strongedge
from strongedge import (
    THEOREMS,
    ClassLabel,
    Graph,
    Scheme,
    base_label,
    classify,
    refine,
    scheme_labels,
    scheme_target,
)
from strongedge.classes import (
    BASE,
    LABEL_DEGREE,
    THETA7_DEG3,
    THETA8_DEG3,
    THETA8_DEG4,
)


def _pad(edges, nxt, v, count):
    """Attach count fresh leaves to v; returns the next free vertex id."""
    for _ in range(count):
        edges.append((v, nxt))
        nxt += 1
    return edges, nxt


def _labels(n, edges, scheme):
    return classify(Graph(n, edges), scheme)


# ---------------------------------------------------------------- theta7


def test_theta7_whole_graph_examples():
    got = classify(Graph(7, oracles.complete_bipartite(3, 4)[1]), Scheme.THETA7)
    assert all(got.labels[v] is ClassLabel.DEG4 for v in range(3))
    assert all(got.labels[v] is ClassLabel.DEG3A for v in range(3, 7))
    assert got.warnings == []

    got = classify(Graph(10, oracles.petersen()[1]), Scheme.THETA7)
    assert all(lab is ClassLabel.DEG3D for lab in got.labels.values())
    assert got.warnings == []

    got = classify(Graph(6, oracles.cycle(6)[1]), Scheme.THETA7)
    assert all(lab is ClassLabel.DEG2 for lab in got.labels.values())


def test_theta7_two_four_neighbors():
    # f(0) sees two 4-vertices and one 3-vertex
    edges = [(0, 1), (0, 2), (0, 3)]
    edges, nxt = _pad(edges, 4, 1, 3)
    edges, nxt = _pad(edges, nxt, 2, 3)
    edges, nxt = _pad(edges, nxt, 3, 2)
    got = _labels(nxt, edges, Scheme.THETA7)
    assert got.labels[0] is ClassLabel.DEG3B
    assert got.labels[1] is ClassLabel.DEG4
    assert got.labels[2] is ClassLabel.DEG4


def test_theta7_one_four_neighbor_weak():
    # both 3-neighbors of f sit in a 3-regular patch with no 4-vertices
    _, pet = oracles.petersen()
    edges = [e for e in pet if e != (0, 1)]
    edges += [(10, 0), (10, 1), (10, 11)]
    edges, nxt = _pad(edges, 12, 11, 3)
    got = _labels(nxt, edges, Scheme.THETA7)
    assert got.labels[0] is ClassLabel.DEG3D
    assert got.labels[1] is ClassLabel.DEG3D
    assert got.labels[10] is ClassLabel.DEG3C_WEAK


def test_theta7_one_four_neighbor_strong():
    # one 3-neighbor of f(0) has two 4-neighbors of its own
    edges = [(0, 1), (0, 2), (0, 3), (2, 4), (2, 5)]
    edges, nxt = _pad(edges, 6, 1, 3)
    edges, nxt = _pad(edges, nxt, 3, 2)
    edges, nxt = _pad(edges, nxt, 4, 3)
    edges, nxt = _pad(edges, nxt, 5, 3)
    got = _labels(nxt, edges, Scheme.THETA7)
    assert got.labels[2] is ClassLabel.DEG3B
    assert got.labels[0] is ClassLabel.DEG3C_STRONG


def test_theta7_moderate_pair_no_warning():
    # two adjacent one-4-neighbor vertices legitimize each other
    edges = [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5)]
    edges, nxt = _pad(edges, 6, 2, 3)
    edges, nxt = _pad(edges, nxt, 3, 3)
    edges, nxt = _pad(edges, nxt, 4, 2)
    edges, nxt = _pad(edges, nxt, 5, 2)
    got = _labels(nxt, edges, Scheme.THETA7)
    assert got.labels[0] is ClassLabel.DEG3C_MODERATE
    assert got.labels[1] is ClassLabel.DEG3C_MODERATE
    assert not any("side condition" in w for w in got.warnings)


def test_theta7_moderate_alone_warns():
    # moderate vertex with no same-kind 3-neighbor trips the side condition
    _, pet = oracles.petersen()
    edges = [e for e in pet if e != (0, 1)]
    edges += [(10, 0), (10, 11), (10, 12)]
    edges, nxt = _pad(edges, 13, 11, 3)
    edges, nxt = _pad(edges, nxt, 12, 2)
    got = _labels(nxt, edges, Scheme.THETA7)
    assert got.labels[10] is ClassLabel.DEG3C_MODERATE
    assert any("side condition" in w and "vertex 10" in w for w in got.warnings)


def test_theta7_side_condition_warnings_in_vertex_order():
    # two lone moderate vertices, 3 and 10: each has a 4-neighbor and two
    # 3-neighbors with leaves (UNCLASSIFIED); vertices 4..9 are isolated
    edges = [(3, 0), (3, 1), (3, 2), (10, 11), (10, 12), (10, 13)]
    edges, nxt = _pad(edges, 14, 0, 3)
    edges, nxt = _pad(edges, nxt, 11, 3)
    for three in (1, 2, 12, 13):
        edges, nxt = _pad(edges, nxt, three, 2)
    got = _labels(nxt, edges, Scheme.THETA7)
    assert got.labels[3] is got.labels[10] is ClassLabel.DEG3C_MODERATE
    side = [w for w in got.warnings if "side condition" in w]
    assert [w.split(":")[0] for w in side] == ["vertex 3", "vertex 10"]


def test_theta7_four_vertices_classified_by_degree_alone():
    # a 4-vertex keeps its class even with out-of-range neighbors
    got = _labels(5, oracles.star(4)[1], Scheme.THETA7)
    assert got.labels[0] is ClassLabel.DEG4
    assert all(got.labels[v] is ClassLabel.UNCLASSIFIED for v in range(1, 5))


def test_theta7_out_of_range_degrees_warn():
    got = _labels(6, oracles.star(5)[1], Scheme.THETA7)
    assert got.labels[0] is ClassLabel.UNCLASSIFIED
    assert any(w.startswith("vertex 0:") for w in got.warnings)


# ---------------------------------------------------------------- theta8


def test_theta8_whole_graph_examples():
    got = classify(Graph(8, oracles.complete_bipartite(4, 4)[1]), Scheme.THETA8)
    assert all(lab is ClassLabel.DEG4A for lab in got.labels.values())
    assert got.warnings == []

    got = classify(Graph(8, oracles.complete_bipartite(3, 5)[1]), Scheme.THETA8)
    assert all(got.labels[v] is ClassLabel.DEG5 for v in range(3))
    assert all(got.labels[v] is ClassLabel.DEG3A for v in range(3, 8))

    got = classify(Graph(10, oracles.petersen()[1]), Scheme.THETA8)
    assert all(lab is ClassLabel.DEG3D for lab in got.labels.values())


def test_theta8_two_five_neighbors_split_by_third():
    for third_degree, expect in [
        (4, ClassLabel.DEG3B_STRONG),
        (3, ClassLabel.DEG3B_WEAK),
    ]:
        edges = [(0, 1), (0, 2), (0, 3)]
        edges, nxt = _pad(edges, 4, 1, 4)
        edges, nxt = _pad(edges, nxt, 2, 4)
        edges, nxt = _pad(edges, nxt, 3, third_degree - 1)
        got = _labels(nxt, edges, Scheme.THETA8)
        assert got.labels[0] is expect


def test_theta8_one_and_zero_five_neighbors():
    edges = [(0, 1), (0, 2), (0, 3)]
    edges, nxt = _pad(edges, 4, 1, 4)
    edges, nxt = _pad(edges, nxt, 2, 2)
    edges, nxt = _pad(edges, nxt, 3, 3)
    got = _labels(nxt, edges, Scheme.THETA8)
    assert got.labels[0] is ClassLabel.DEG3C

    edges = [(0, 1), (0, 2), (0, 3)]
    edges, nxt = _pad(edges, 4, 1, 2)
    edges, nxt = _pad(edges, nxt, 2, 2)
    edges, nxt = _pad(edges, nxt, 3, 3)
    got = _labels(nxt, edges, Scheme.THETA8)
    assert got.labels[0] is ClassLabel.DEG3D


def test_theta8_four_vertex_splits():
    # (three 4-nbs, one 3-nb) and (one 4-nb, three 3-nbs)
    edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
    edges, nxt = _pad(edges, 5, 1, 3)
    edges, nxt = _pad(edges, nxt, 2, 3)
    edges, nxt = _pad(edges, nxt, 3, 3)
    edges, nxt = _pad(edges, nxt, 4, 2)
    got = _labels(nxt, edges, Scheme.THETA8)
    assert got.labels[0] is ClassLabel.DEG4B

    edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
    edges, nxt = _pad(edges, 5, 1, 3)
    edges, nxt = _pad(edges, nxt, 2, 2)
    edges, nxt = _pad(edges, nxt, 3, 2)
    edges, nxt = _pad(edges, nxt, 4, 2)
    got = _labels(nxt, edges, Scheme.THETA8)
    assert got.labels[0] is ClassLabel.DEG4D


def _theta8_two_two_gadget(five_neighbors_for_threes):
    """Focal 4-vertex with two 4-nbs and two 3-nbs; the 3-nbs each get one
    5-neighbor when asked (making them one-5-neighbor vertices) or none."""
    edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
    edges, nxt = _pad(edges, 5, 1, 3)
    edges, nxt = _pad(edges, nxt, 2, 3)
    for three in (3, 4):
        helper = nxt
        edges.append((three, helper))
        nxt += 1
        edges, nxt = _pad(edges, nxt, helper, 4 if five_neighbors_for_threes else 2)
        other = nxt
        edges.append((three, other))
        nxt += 1
        edges, nxt = _pad(edges, nxt, other, 2)
    return _labels(nxt, edges, Scheme.THETA8)


def test_theta8_two_two_split_weak_vs_strong():
    got = _theta8_two_two_gadget(True)
    assert got.labels[3] is ClassLabel.DEG3C
    assert got.labels[4] is ClassLabel.DEG3C
    assert got.labels[0] is ClassLabel.DEG4C_WEAK

    got = _theta8_two_two_gadget(False)
    assert got.labels[3] is ClassLabel.DEG3D
    assert got.labels[4] is ClassLabel.DEG3D
    assert got.labels[0] is ClassLabel.DEG4C_STRONG


def test_theta8_four_vertex_disqualifiers():
    # adjacent to a 5-vertex: the edge already busts the degree-sum cap
    got = classify(Graph(9, oracles.complete_bipartite(4, 5)[1]), Scheme.THETA8)
    assert all(got.labels[v] is ClassLabel.DEG5 for v in range(4))
    assert all(got.labels[v] is ClassLabel.UNCLASSIFIED for v in range(4, 9))
    assert any("degree-sum 9" in w for w in got.warnings)

    # four 3-neighbors: no class admits that shape
    edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
    edges, nxt = _pad(edges, 5, 1, 2)
    edges, nxt = _pad(edges, nxt, 2, 2)
    edges, nxt = _pad(edges, nxt, 3, 2)
    edges, nxt = _pad(edges, nxt, 4, 2)
    got = _labels(nxt, edges, Scheme.THETA8)
    assert got.labels[0] is ClassLabel.UNCLASSIFIED
    assert any(w.startswith("vertex 0:") for w in got.warnings)


def test_theta8_out_of_range_degrees_warn():
    got = _labels(7, oracles.star(6)[1], Scheme.THETA8)
    assert got.labels[0] is ClassLabel.UNCLASSIFIED
    assert any(w.startswith("vertex 0:") for w in got.warnings)


# ---------------------------------------------------------------- generic


@pytest.mark.parametrize("scheme", [Scheme.THETA7, Scheme.THETA8])
def test_every_vertex_gets_exactly_one_label(corpus6, scheme):
    allowed = scheme_labels(scheme) | {ClassLabel.UNCLASSIFIED}
    for g in corpus6:
        got = classify(g, scheme)
        assert set(got.labels) == set(range(g.n))
        for v, lab in got.labels.items():
            assert lab in allowed
            if lab is ClassLabel.UNCLASSIFIED:
                assert any(w.startswith(f"vertex {v}:") for w in got.warnings)


@pytest.mark.parametrize("scheme", [Scheme.THETA7, Scheme.THETA8])
def test_classification_is_relabeling_invariant(corpus6, rng, scheme):
    for g in corpus6:
        if g.n < 2:
            continue
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        got_g = classify(g, scheme)
        got_h = classify(h, scheme)
        for v in range(g.n):
            assert got_h.labels[perm[v]] is got_g.labels[v]


@pytest.mark.parametrize("scheme", [Scheme.THETA7, Scheme.THETA8])
def test_labels_follow_from_neighbour_labels_alone(corpus7, scheme):
    # the local rule round-trips: a vertex whose neighbours all carry
    # proper labels gets its label back from its degree and those labels
    checked = 0
    for g in corpus7:
        labels = classify(g, scheme).labels
        for v in range(g.n):
            nbr = [labels[u] for u in g.neighbors(v)]
            if ClassLabel.UNCLASSIFIED in nbr:
                continue
            base, _ = base_label(scheme, g.degree(v), [LABEL_DEGREE[x] for x in nbr])
            label, _ = refine(scheme, base, [BASE.get(x, x) for x in nbr])
            assert label is labels[v], (g.edges, v)
            checked += 1
    assert checked > 0


def test_degree_groups_are_pinned():
    L = ClassLabel
    assert THETA7_DEG3 == {
        L.DEG3A, L.DEG3B, L.DEG3C_WEAK, L.DEG3C_MODERATE, L.DEG3C_STRONG, L.DEG3D
    }
    assert THETA8_DEG3 == {L.DEG3A, L.DEG3B_STRONG, L.DEG3B_WEAK, L.DEG3C, L.DEG3D}
    assert THETA8_DEG4 == {L.DEG4A, L.DEG4B, L.DEG4C_STRONG, L.DEG4C_WEAK, L.DEG4D}


def test_theorem_table():
    # theorem -> (scheme, Ore-degree cap, palette), held once
    assert THEOREMS == {1: (Scheme.THETA7, 7, 13), 2: (Scheme.THETA8, 8, 20)}
    assert strongedge.verify.THEOREMS is strongedge.classes.THEOREMS
    assert strongedge.THEOREMS is strongedge.classes.THEOREMS


def test_scheme_tables():
    assert scheme_target(Scheme.THETA7) == Fraction(34, 11)
    assert scheme_target(Scheme.THETA8) == Fraction(113, 31)
    assert ClassLabel.UNCLASSIFIED not in scheme_labels(Scheme.THETA7)
    assert ClassLabel.UNCLASSIFIED not in scheme_labels(Scheme.THETA8)
    assert len(scheme_labels(Scheme.THETA7)) == 8
    assert len(scheme_labels(Scheme.THETA8)) == 11
    with pytest.raises(ValueError):
        classify(Graph(1, []), "theta7")
    with pytest.raises(ValueError):
        base_label("theta7", 3, [3, 3, 3])
    with pytest.raises(ValueError):
        refine("theta8", ClassLabel.DEG4C_STRONG, [])
    # a bare string is not a scheme: every scheme table refuses it alike
    for name in ("theta7", "theta8", None):
        with pytest.raises(ValueError):
            scheme_target(name)
        with pytest.raises(ValueError):
            scheme_labels(name)
