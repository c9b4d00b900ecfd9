"""Star decomposition and the star edit distance (Section III-A).

A *star* is a labelled, single-level, rooted tree ``s = (r, L, l)``: a root
vertex plus the multiset of its neighbours' labels.  A graph with ``n``
vertices decomposes into a multiset of exactly ``n`` stars, one rooted at
each vertex.  Stars are the "sub-units" that SEGOS indexes.

This module implements:

* :class:`Star` — an immutable star with a canonical label-sequence
  key and a display signature (the paper writes ``s0: abbcc`` for root
  ``a``, leaves ``{b, b, c, c}``);
* :func:`decompose` — the graph → star multiset transformation;
* :func:`star_edit_distance` — Lemma 1, computed in Θ(n) on the sorted leaf
  multisets;
* :func:`sed_via_common_leaves` — Equation (1), the reformulation that TA
  search aggregates over (``ψ`` = number of common leaf labels);
* :func:`epsilon_distance` — the cost ``λ(s, ε)`` of matching a star against
  the padding ε sub-unit, which Figure 3 fixes at ``1 + 2·|L|``.
"""

from __future__ import annotations

from typing import Counter as CounterType
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .model import Graph, Label

#: A star's collision-free identity: ``(root label, sorted leaf labels)``.
StarKey = Tuple[Label, Tuple[Label, ...]]


class Star:
    """An immutable star sub-unit: a root label plus sorted leaf labels.

    Examples
    --------
    >>> s = Star("a", ["c", "b", "b", "c"])
    >>> s.signature
    'a|b,b,c,c'
    >>> s.key
    ('a', ('b', 'b', 'c', 'c'))
    >>> s.leaf_size
    4
    """

    __slots__ = ("root", "leaves", "key", "_hash", "_signature")

    def __init__(self, root: Label, leaves: Iterable[Label] = ()) -> None:
        self.root: Label = root
        self.leaves: Tuple[Label, ...] = tuple(sorted(leaves))
        #: ``(root, leaves)``: the collision-free dictionary key every index
        #: level and cache uses for this star.
        self.key: StarKey = (root, self.leaves)
        self._hash = hash(self.key)
        self._signature: Optional[str] = None

    @property
    def leaf_size(self) -> int:
        """``|L|``: the number of leaves (equals the root's degree)."""
        return len(self.leaves)

    @property
    def signature(self) -> str:
        """Display form: the root, ``|``, then the leaves joined by ``,``.

        For display only: a label that contains ``|`` or ``,`` makes two
        different stars share a signature (``Star("a", ["b,c"])`` and
        ``Star("a", ["b", "c"])`` both read ``a|b,c``), so nothing keys on
        it — use :attr:`key`.
        """
        if self._signature is None:
            self._signature = f"{self.root}|{','.join(self.leaves)}"
        return self._signature

    def leaf_counter(self) -> CounterType[Label]:
        """Return the leaf label multiset as a :class:`collections.Counter`."""
        return Counter(self.leaves)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Star):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Star") -> bool:
        """Order by root, then leaves (the upper-level index order)."""
        return self.key < other.key

    def __repr__(self) -> str:
        return f"Star({self.signature!r})"


def star_at(graph: Graph, vertex: int) -> Star:
    """Build the star rooted at *vertex* of *graph*."""
    return Star(graph.label(vertex), (graph.label(n) for n in graph.neighbors(vertex)))


def decompose(graph: Graph) -> List[Star]:
    """Decompose *graph* into its multiset of stars, one per vertex.

    The result is ordered by vertex insertion order; callers that need a
    canonical multiset should sort the stars (by :attr:`Star.key`).
    """
    return [star_at(graph, v) for v in graph.vertices()]


def decompose_map(graph: Graph) -> Dict[int, Star]:
    """Like :func:`decompose` but keyed by vertex id.

    The key → star association is what lets the Hungarian star alignment be
    lifted back to a vertex mapping (needed for the Lemma 3 upper bound).
    """
    return {v: star_at(graph, v) for v in graph.vertices()}


def multiset_intersection_size(
    left: Sequence[Label], right: Sequence[Label]
) -> int:
    """``|Ψ₁ ∩ Ψ₂|`` — multiset intersection size of two *sorted* sequences.

    Runs in Θ(|left| + |right|); both inputs must already be sorted, which
    :class:`Star` guarantees for its ``leaves`` tuple.
    """
    i = j = common = 0
    nl, nr = len(left), len(right)
    while i < nl and j < nr:
        a, b = left[i], right[j]
        if a == b:
            common += 1
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return common


def sed_from_psi(root_equal: bool, n1: int, n2: int, psi: int) -> int:
    """Lemma 1 in the ``2·max − min − ψ`` form shared by every SED kernel.

    ``||L1| − |L2|| + max(|L1|, |L2|)`` equals ``2·max(|L1|, |L2|) −
    min(|L1|, |L2|)``, so the whole distance is a function of the two leaf
    sizes and the common-leaf count ``ψ`` alone.  The scalar
    :func:`star_edit_distance`, the Equation (1) rewrite
    :func:`sed_via_common_leaves` and the columnar batch kernel
    (:mod:`repro.perf.columnar`) all reduce to this one expression, which is
    what lets a property test pin them against each other.

    Examples
    --------
    >>> sed_from_psi(True, 4, 5, 4)
    2
    """
    return (0 if root_equal else 1) + 2 * max(n1, n2) - min(n1, n2) - psi


def star_edit_distance(s1: Star, s2: Star) -> int:
    """Lemma 1: ``λ(s1, s2) = T(r1, r2) + d(L1, L2)``.

    ``T`` is 0/1 on root label equality and
    ``d(L1, L2) = ||L1| − |L2|| + max(|Ψ1|, |Ψ2|) − |Ψ1 ∩ Ψ2|``.

    Examples
    --------
    Figure 2's worked example (``s0 = abbcc`` vs ``s1 = abbccd``):

    >>> star_edit_distance(Star("a", "bbcc"), Star("a", "bbccd"))
    2
    """
    common = multiset_intersection_size(s1.leaves, s2.leaves)
    return sed_from_psi(s1.root == s2.root, s1.leaf_size, s2.leaf_size, common)


def sed_via_common_leaves(
    query: Star, other_root: Label, other_leaf_size: int, common: int
) -> int:
    """Equation (1): SED from ``ψ`` (common leaves) and ``|L_i]``.

    This is the decomposition the TA stage's aggregation functions are built
    on.  It must equal :func:`star_edit_distance` for the true ``ψ``; a
    property test asserts that.
    """
    return sed_from_psi(
        query.root == other_root, query.leaf_size, other_leaf_size, common
    )


def epsilon_distance(star: Star) -> int:
    """``λ(s, ε)``: cost of aligning *star* with the padding ε sub-unit.

    Figure 3's full cost matrix fixes this at ``1 + 2·|L|`` (delete the root
    plus, per Lemma 1's ``d`` term against an empty leaf set, ``2·|L|`` for
    the leaves), e.g. ``λ(abbccd, ε) = 11`` and ``λ(bab, ε) = 5``.
    """
    return 1 + 2 * star.leaf_size


def max_epsilon_distance(stars: Iterable[Star]) -> int:
    """``χ̄ = max_{s} λ(s, ε)`` over a collection of stars (Section V-C)."""
    result = 0
    for s in stars:
        d = epsilon_distance(s)
        if d > result:
            result = d
    return result


EPSILON_SIGNATURE = "ε"
"""Display name for the ε padding sub-unit (never a real signature)."""
