"""Vertex taxonomies for the two sparse-graph settings, and their theorems.

`THEOREMS` and `scheme_target` are the one home of each theorem's numbers:
Ore degree at most the cap and mad below the target give a strong chromatic
index at most the palette, which the catalog's replays also use.

Two classification schemes split vertices by degree and neighbor makeup:
theta7 (edge degree-sum at most 7) over degrees 2, 3, 4, and theta8
(degree-sum at most 8) over degrees 3, 4, 5.  A label is a local rule in
two pure steps, the one home of what each class means.  `base_label`
gives a vertex's base class from its degree and its neighbors' degrees.
`refine` gives its label from that base and its neighbors' bases; only a
`BASE` placeholder changes there.  `classify` runs the first step on every
vertex of a graph, then the second.  Vertices that fit no class (wrong
degree, or a neighbor outside the scheme's degree range) are labeled
UNCLASSIFIED with the reason as a warning; they are never guessed into a
class.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple


class Scheme(enum.Enum):
    THETA7 = "theta7"
    THETA8 = "theta8"

    # members are singletons compared by identity, so hash them by identity
    # too, in C, not by Enum's Python-level hash of the member name
    __hash__ = object.__hash__


class ClassLabel(enum.Enum):
    # shared / theta7
    DEG2 = "2"
    DEG3A = "3A"
    DEG3B = "3B"
    DEG3C_WEAK = "3C_weak"
    DEG3C_MODERATE = "3C_moderate"
    DEG3C_STRONG = "3C_strong"
    DEG3D = "3D"
    DEG4 = "4"
    # theta8 only
    DEG3B_STRONG = "3B_strong"
    DEG3B_WEAK = "3B_weak"
    DEG3C = "3C"
    DEG4A = "4A"
    DEG4B = "4B"
    DEG4C_STRONG = "4C_strong"
    DEG4C_WEAK = "4C_weak"
    DEG4D = "4D"
    DEG5 = "5"
    UNCLASSIFIED = "unclassified"

    __hash__ = object.__hash__  # as Scheme's: by identity, in C


THETA7_LABELS = frozenset(
    {
        ClassLabel.DEG2,
        ClassLabel.DEG3A,
        ClassLabel.DEG3B,
        ClassLabel.DEG3C_WEAK,
        ClassLabel.DEG3C_MODERATE,
        ClassLabel.DEG3C_STRONG,
        ClassLabel.DEG3D,
        ClassLabel.DEG4,
    }
)

THETA8_LABELS = frozenset(
    {
        ClassLabel.DEG3A,
        ClassLabel.DEG3B_STRONG,
        ClassLabel.DEG3B_WEAK,
        ClassLabel.DEG3C,
        ClassLabel.DEG3D,
        ClassLabel.DEG4A,
        ClassLabel.DEG4B,
        ClassLabel.DEG4C_STRONG,
        ClassLabel.DEG4C_WEAK,
        ClassLabel.DEG4D,
        ClassLabel.DEG5,
    }
)

# The degree of each proper label: a label's name starts with its degree.
LABEL_DEGREE = {
    label: int(label.value[0])
    for label in ClassLabel
    if label is not ClassLabel.UNCLASSIFIED
}

# Each label of a family that pass 2 splits, mapped to the one base pass 1
# gives the whole family: theta7's three 3C classes and theta8's two 4C
# classes.  The base is a placeholder that `refine` resolves.
BASE = {
    ClassLabel.DEG3C_WEAK: ClassLabel.DEG3C_MODERATE,
    ClassLabel.DEG3C_MODERATE: ClassLabel.DEG3C_MODERATE,
    ClassLabel.DEG3C_STRONG: ClassLabel.DEG3C_MODERATE,
    ClassLabel.DEG4C_STRONG: ClassLabel.DEG4C_STRONG,
    ClassLabel.DEG4C_WEAK: ClassLabel.DEG4C_STRONG,
}

# Class groups that the catalogs and the discharge rules share.
# The three 3(C) classes of theta7.
THETA7_3C = frozenset(k for k, b in BASE.items() if b is ClassLabel.DEG3C_MODERATE)
# Every 3-vertex class of theta7.
THETA7_DEG3 = frozenset(k for k in THETA7_LABELS if LABEL_DEGREE[k] == 3)
# The two 4(C) classes of theta8.
THETA8_4C = frozenset(k for k, b in BASE.items() if b is ClassLabel.DEG4C_STRONG)
# Every 3-vertex class of theta8.
THETA8_DEG3 = frozenset(k for k in THETA8_LABELS if LABEL_DEGREE[k] == 3)
# Every 4-vertex class of theta8.
THETA8_DEG4 = frozenset(k for k in THETA8_LABELS if LABEL_DEGREE[k] == 4)


_L = ClassLabel

# A 3-vertex's base class by its count of neighbors of the scheme's top
# degree (4 or 5), and a theta8 4-vertex's by its count of 4-neighbors.
_THETA7_DEG3_BASE = {3: _L.DEG3A, 2: _L.DEG3B, 1: _L.DEG3C_MODERATE, 0: _L.DEG3D}
_THETA8_DEG3_BASE = {3: _L.DEG3A, 1: _L.DEG3C, 0: _L.DEG3D}
_THETA8_DEG4_BASE = {4: _L.DEG4A, 3: _L.DEG4B, 2: _L.DEG4C_STRONG, 1: _L.DEG4D}


class Classification(NamedTuple):
    labels: dict
    warnings: list


def base_label(scheme, degree, neighbour_degrees):
    """Pass 1: a vertex's base class from its degree and its neighbors'.

    `neighbour_degrees` is a sequence.  Returns ``(label, reason)``: reason
    is None, or says why the label is UNCLASSIFIED.

    Theta7 gives DEG2 and DEG4 by degree alone.  A 3-vertex whose neighbors
    all have degree 3 or 4 gets 3A/3B/3C/3D by its count of 4-neighbors
    (3, 2, 1, 0); 3C_moderate stands for the 3C family until `refine`.

    Theta8 gives 5-vertices a class of their own.  A 3-vertex with
    neighbors of degree in {3,4,5} gets 3A/3B/3C/3D by its count of
    5-neighbors (3, 2, 1, 0); the two-5-neighbor case splits by the third
    neighbor's degree (4: strong, 3: weak).  A 4-vertex qualifies only with
    zero 5-neighbors and a (4-nb, 3-nb) split of (4,0), (3,1), (2,2) or
    (1,3), giving 4A/4B/4C/4D; 4C_strong stands for the 4C family until
    `refine`.
    """
    if scheme is Scheme.THETA7:
        if degree == 2:
            return _L.DEG2, None
        if degree == 4:
            return _L.DEG4, None
        if degree != 3:
            return _L.UNCLASSIFIED, f"degree {degree} outside scheme range {{2,3,4}}"
        if min(neighbour_degrees) < 3 or max(neighbour_degrees) > 4:
            return _L.UNCLASSIFIED, (
                "3-vertex with a neighbor of degree outside {3,4}; no class applies"
            )
        return _THETA7_DEG3_BASE[neighbour_degrees.count(4)], None
    if scheme is not Scheme.THETA8:
        raise ValueError(f"unknown scheme {scheme!r}")
    if degree == 5:
        return _L.DEG5, None
    if degree not in (3, 4):
        return _L.UNCLASSIFIED, f"degree {degree} outside scheme range {{3,4,5}}"
    if min(neighbour_degrees) < 3 or max(neighbour_degrees) > 5:
        return _L.UNCLASSIFIED, (
            f"{degree}-vertex with a neighbor of degree outside {{3,4,5}}; "
            f"no class applies"
        )
    fives = neighbour_degrees.count(5)
    if degree == 3:
        if fives == 2:
            return (_L.DEG3B_STRONG if 4 in neighbour_degrees else _L.DEG3B_WEAK), None
        return _THETA8_DEG3_BASE[fives], None
    if fives:
        return _L.UNCLASSIFIED, (
            "4-vertex adjacent to a 5-vertex (edge degree-sum 9); no class applies"
        )
    fours = neighbour_degrees.count(4)
    if fours == 0:
        return _L.UNCLASSIFIED, (
            "4-vertex with four 3-neighbors fits no class (that shape is itself "
            "a forbidden configuration)"
        )
    return _THETA8_DEG4_BASE[fours], None


def refine(scheme, base, neighbour_bases):
    """Pass 2: a vertex's class from its base and its neighbors' bases.

    `neighbour_bases` is a sequence.  Returns ``(label, reason)``; a base
    that is not the scheme's `BASE` placeholder comes back unchanged.

    Theta7 refines a 3C by its two 3-neighbors' bases: both 3D makes it
    weak, at least one 3B makes it strong, anything else moderate.  A
    moderate 3C with no 3C among its 3-neighbors is legal input but breaks
    a structural fact that holds in the scheme's intended setting, so the
    reason reports it as a warning, not an error.

    Theta8 makes a 4C weak when both its 3-neighbors are 3C, else strong.
    """
    if scheme is Scheme.THETA7:
        if base is not _L.DEG3C_MODERATE:
            return base, None
        # the one 4-neighbor's base is DEG4, which no 3-vertex gets
        threes = [b for b in neighbour_bases if b is not _L.DEG4]
        if all(b is _L.DEG3D for b in threes):
            return _L.DEG3C_WEAK, None
        if _L.DEG3B in threes:
            return _L.DEG3C_STRONG, None
        if _L.DEG3C_MODERATE in threes:
            return _L.DEG3C_MODERATE, None
        return _L.DEG3C_MODERATE, (
            "moderate one-4-neighbor vertex with no same-kind 3-neighbor "
            "(structural side condition fails)"
        )
    if scheme is not Scheme.THETA8:
        raise ValueError(f"unknown scheme {scheme!r}")
    if base is _L.DEG4C_STRONG and neighbour_bases.count(_L.DEG3C) == 2:
        return _L.DEG4C_WEAK, None
    return base, None


def classify(g, scheme):
    """Label every vertex of g under the scheme.

    Pass 1 runs `base_label` on every vertex, pass 2 runs `refine` on each
    vertex whose base is a `BASE` placeholder.  Each reason becomes a
    warning prefixed with its vertex, in pass order, then vertex order.
    """
    scheme_labels(scheme)  # rejects a non-Scheme, also on an empty graph
    adj = [g.neighbors(v) for v in range(g.n)]
    degree = [len(a) for a in adj]
    warnings = []
    base = []
    for v in range(g.n):
        label, reason = base_label(scheme, degree[v], [degree[u] for u in adj[v]])
        base.append(label)
        if reason:
            warnings.append(f"vertex {v}: {reason}")
    labels = dict(enumerate(base))
    for v in range(g.n):
        # pass 1 gives no refined label, so a base in BASE is a placeholder
        if base[v] in BASE:
            labels[v], reason = refine(scheme, base[v], [base[u] for u in adj[v]])
            if reason:
                warnings.append(f"vertex {v}: {reason}")
    return Classification(labels, warnings)


def scheme_labels(scheme):
    """The set of proper labels (UNCLASSIFIED excluded) for a scheme."""
    if scheme is Scheme.THETA7:
        return THETA7_LABELS
    if scheme is Scheme.THETA8:
        return THETA8_LABELS
    raise ValueError(f"unknown scheme {scheme!r}")


def scheme_target(scheme):
    """The charge target the scheme's discharging argument uses."""
    if scheme is Scheme.THETA7:
        return Fraction(34, 11)
    if scheme is Scheme.THETA8:
        return Fraction(113, 31)
    raise ValueError(f"unknown scheme {scheme!r}")


# Theorem number -> (scheme, Ore-degree cap, palette).
THEOREMS = {1: (Scheme.THETA7, 7, 13), 2: (Scheme.THETA8, 8, 20)}
