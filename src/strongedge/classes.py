"""Vertex taxonomies for the two sparse-graph settings, and their theorems.

`THEOREMS` and `scheme_target` are the one home of each theorem's numbers:
Ore degree at most the cap and mad below the target give a strong chromatic
index at most the palette, which the catalog's replays also use.

Two classification schemes refine vertices by degree and neighbor makeup.
Under the first scheme (edge degree-sum at most 7) vertices of degree 2, 3,
4 occur; 3-vertices split by how many 4-neighbors they have, and the
one-4-neighbor case splits again by what its two 3-neighbors are.  Under
the second scheme (degree-sum at most 8) vertices of degree 3, 4, 5 occur;
3-vertices split by their count of 5-neighbors and 4-vertices by their
3-neighbor/4-neighbor split, with weak/strong refinements on both.

Classification is a two-pass procedure: base classes first, then the
refinements, which only consult other vertices' base classes.  Vertices
that fit no class (wrong degree, or a neighbor outside the scheme's degree
range) are labeled UNCLASSIFIED and a warning records why; they are never
guessed into a class.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple


class Scheme(enum.Enum):
    THETA7 = "theta7"
    THETA8 = "theta8"


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

# Class groups that the catalogs and the discharge rules share.
# The three 3(C) classes of theta7.
THETA7_3C = frozenset(
    {ClassLabel.DEG3C_WEAK, ClassLabel.DEG3C_MODERATE, ClassLabel.DEG3C_STRONG}
)
# Every 3-vertex class of theta7.
THETA7_DEG3 = THETA7_3C | {ClassLabel.DEG3A, ClassLabel.DEG3B, ClassLabel.DEG3D}
# The two 4(C) classes of theta8.
THETA8_4C = frozenset({ClassLabel.DEG4C_STRONG, ClassLabel.DEG4C_WEAK})
# Every 3-vertex class of theta8.
THETA8_DEG3 = frozenset(
    {
        ClassLabel.DEG3A,
        ClassLabel.DEG3B_STRONG,
        ClassLabel.DEG3B_WEAK,
        ClassLabel.DEG3C,
        ClassLabel.DEG3D,
    }
)
# Every 4-vertex class of theta8.
THETA8_DEG4 = THETA8_4C | {ClassLabel.DEG4A, ClassLabel.DEG4B, ClassLabel.DEG4D}


class Classification(NamedTuple):
    labels: dict
    warnings: list


def classify_theta7(g):
    """Label every vertex under the degree-sum-7 scheme.

    Pass 1 assigns base classes: DEG2 and DEG4 by degree alone; a 3-vertex
    whose neighbors all have degree 3 or 4 gets 3A/3B/3C/3D by its count
    of 4-neighbors (3, 2, 1, 0).  Pass 2 refines each 3C vertex by its two
    3-neighbors' base classes: both 3D makes it weak, at least one 3B
    makes it strong, anything else moderate.

    A moderate 3C with no 3C among its 3-neighbors is legal input but
    breaks a structural fact that holds in the scheme's intended setting,
    so it is reported as a warning, not an error.
    """
    warnings = []
    base = {}
    for v in range(g.n):
        d = g.degree(v)
        if d == 2:
            base[v] = ClassLabel.DEG2
        elif d == 4:
            base[v] = ClassLabel.DEG4
        elif d == 3:
            nbr_degs = [g.degree(u) for u in g.neighbors(v)]
            if any(x not in (3, 4) for x in nbr_degs):
                base[v] = ClassLabel.UNCLASSIFIED
                warnings.append(
                    f"vertex {v}: 3-vertex with a neighbor of degree "
                    f"outside {{3,4}}; no class applies"
                )
            else:
                fours = sum(1 for x in nbr_degs if x == 4)
                base[v] = {
                    3: ClassLabel.DEG3A,
                    2: ClassLabel.DEG3B,
                    1: ClassLabel.DEG3C_MODERATE,  # placeholder, refined below
                    0: ClassLabel.DEG3D,
                }[fours]
        else:
            base[v] = ClassLabel.UNCLASSIFIED
            warnings.append(f"vertex {v}: degree {d} outside scheme range {{2,3,4}}")
    is_3c = {
        v
        for v in range(g.n)
        if g.degree(v) == 3
        and base[v] is ClassLabel.DEG3C_MODERATE
    }
    labels = dict(base)
    for v in is_3c:
        three_nbrs = [u for u in g.neighbors(v) if g.degree(u) == 3]
        nb_base = [base[u] for u in three_nbrs]
        weak = all(b is ClassLabel.DEG3D for b in nb_base)
        strong = any(b is ClassLabel.DEG3B for b in nb_base)
        if weak:
            labels[v] = ClassLabel.DEG3C_WEAK
        elif strong:
            labels[v] = ClassLabel.DEG3C_STRONG
        else:
            labels[v] = ClassLabel.DEG3C_MODERATE
            if not any(u in is_3c for u in three_nbrs):
                warnings.append(
                    f"vertex {v}: moderate one-4-neighbor vertex with no "
                    f"same-kind 3-neighbor (structural side condition fails)"
                )
    return Classification(labels, warnings)


def classify_theta8(g):
    """Label every vertex under the degree-sum-8 scheme.

    5-vertices are a class of their own.  A 3-vertex with neighbors of
    degree in {3,4,5} gets 3A/3B/3C/3D by its count of 5-neighbors
    (3, 2, 1, 0); the two-5-neighbor case refines by the third neighbor's
    degree (4: strong, 3: weak).  A 4-vertex qualifies only with zero
    5-neighbors and a (4-nb, 3-nb) split of (4,0), (3,1), (2,2) or (1,3),
    giving 4A/4B/4C/4D; a (2,2) vertex is weak when both its 3-neighbors
    are one-5-neighbor vertices, else strong.
    """
    warnings = []
    base = {}
    for v in range(g.n):
        d = g.degree(v)
        nbr_degs = [g.degree(u) for u in g.neighbors(v)]
        if d == 5:
            base[v] = ClassLabel.DEG5
        elif d == 3:
            if any(x not in (3, 4, 5) for x in nbr_degs):
                base[v] = ClassLabel.UNCLASSIFIED
                warnings.append(
                    f"vertex {v}: 3-vertex with a neighbor of degree "
                    f"outside {{3,4,5}}; no class applies"
                )
            else:
                fives = sum(1 for x in nbr_degs if x == 5)
                if fives == 3:
                    base[v] = ClassLabel.DEG3A
                elif fives == 2:
                    third = next(x for x in nbr_degs if x != 5)
                    base[v] = (
                        ClassLabel.DEG3B_STRONG
                        if third == 4
                        else ClassLabel.DEG3B_WEAK
                    )
                elif fives == 1:
                    base[v] = ClassLabel.DEG3C
                else:
                    base[v] = ClassLabel.DEG3D
        elif d == 4:
            if any(x not in (3, 4, 5) for x in nbr_degs):
                base[v] = ClassLabel.UNCLASSIFIED
                warnings.append(
                    f"vertex {v}: 4-vertex with a neighbor of degree "
                    f"outside {{3,4,5}}; no class applies"
                )
            elif any(x == 5 for x in nbr_degs):
                base[v] = ClassLabel.UNCLASSIFIED
                warnings.append(
                    f"vertex {v}: 4-vertex adjacent to a 5-vertex "
                    f"(edge degree-sum 9); no class applies"
                )
            else:
                fours = sum(1 for x in nbr_degs if x == 4)
                split = {
                    4: ClassLabel.DEG4A,
                    3: ClassLabel.DEG4B,
                    2: ClassLabel.DEG4C_STRONG,  # placeholder, refined below
                    1: ClassLabel.DEG4D,
                }
                if fours in split:
                    base[v] = split[fours]
                else:
                    base[v] = ClassLabel.UNCLASSIFIED
                    warnings.append(
                        f"vertex {v}: 4-vertex with four 3-neighbors fits "
                        f"no class (that shape is itself a forbidden "
                        f"configuration)"
                    )
        else:
            base[v] = ClassLabel.UNCLASSIFIED
            warnings.append(f"vertex {v}: degree {d} outside scheme range {{3,4,5}}")
    labels = dict(base)
    for v in range(g.n):
        if base[v] is ClassLabel.DEG4C_STRONG:
            three_nbrs = [u for u in g.neighbors(v) if g.degree(u) == 3]
            if sum(1 for u in three_nbrs if base[u] is ClassLabel.DEG3C) == 2:
                labels[v] = ClassLabel.DEG4C_WEAK
    return Classification(labels, warnings)


def classify(g, scheme):
    """Dispatch to the scheme's classifier."""
    if scheme is Scheme.THETA7:
        return classify_theta7(g)
    if scheme is Scheme.THETA8:
        return classify_theta8(g)
    raise ValueError(f"unknown scheme {scheme!r}")


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
