"""Quivers, dimension vectors, Euler form, type classification.

Vertices are 1..n. Dimension vectors are plain integer tuples of length n;
negative entries are allowed at the type level so Coxeter images can be
inspected for membership in N^n.  Simple reflections act in
``roots``: ``roots.hom_table`` reflects every positive root at once along
an admissible sink sequence, and ``roots.HomTable.coxeter_step`` applies
the Coxeter transformation by reflecting one list in place along the same
sequence.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple


class QuiverError(ValueError):
    pass


class NonDynkinError(QuiverError):
    """Raised when an operation requires a Dynkin quiver."""


class Quiver:
    """Directed multigraph without loops or oriented cycles.

    Two quivers are equal when their vertex counts and arrows are.  The
    hash, of the same two fields, is computed once, when the quiver is
    built: ``roots.hom_table``, the cache of the per-quiver context that
    every layer reads, looks the quiver up by it on every call, and would
    otherwise hash the arrow tuple anew each time.  So a built quiver
    cannot be changed: assigning to or deleting an attribute raises
    AttributeError, which keeps the stored hash and the cached context
    those of its arrows.  ``__init__`` and the cached properties write the
    instance dict directly."""

    def __init__(self, n: int, arrows):
        if type(n) is not int:
            raise QuiverError(f"vertex count {n!r} is not an int")
        if n < 1:
            raise QuiverError("need at least one vertex")
        arrows = tuple((t, h) for t, h in arrows)  # (tail, head), 1-indexed
        vars(self).update(n=n, arrows=arrows)
        for t, h in arrows:
            if type(t) is not int or type(h) is not int:
                raise QuiverError(
                    f"arrow ({t!r},{h!r}) has an endpoint that is not an int")
            if not (1 <= t <= n and 1 <= h <= n):
                raise QuiverError(f"arrow ({t},{h}) references invalid vertex")
            if t == h:
                raise QuiverError(f"loop at vertex {t}")
        if len(self.topological_order()) != n:
            raise QuiverError("quiver has an oriented cycle")
        vars(self)["_hash"] = hash((n, arrows))

    def __setattr__(self, name, value):
        raise AttributeError(f"a built Quiver cannot be changed: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a built Quiver cannot be changed: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.arrows) == (other.n, other.arrows)

    def __hash__(self):
        return self._hash

    # -- basic structure ---------------------------------------------------

    @cached_property
    def adjacency(self):
        """adjacency[x]: the neighbours of vertex x + 1 in the underlying
        graph, 0-based, one entry per arrow in the order of ``arrows``.
        Built once per quiver; every simple reflection reads it."""
        nbrs = [[] for _ in range(self.n)]
        for t, h in self.arrows:
            nbrs[t - 1].append(h - 1)
            nbrs[h - 1].append(t - 1)
        return tuple(map(tuple, nbrs))

    @cached_property
    def incident(self):
        """incident[x]: the indices in ``arrows`` of the arrows at vertex
        x + 1, in order, so entry for entry those of ``adjacency[x]``.
        Built once per quiver; ``jacobian.realize`` reads it at each
        coreflection."""
        at = [[] for _ in range(self.n)]
        for a, (t, h) in enumerate(self.arrows):
            at[t - 1].append(a)
            at[h - 1].append(a)
        return tuple(map(tuple, at))

    def topological_order(self):
        indeg = [0] * (self.n + 1)
        out = {v: [] for v in range(1, self.n + 1)}
        for t, h in self.arrows:
            out[t].append(h)
            indeg[h] += 1
        order = []
        avail = sorted(x for x in range(1, self.n + 1) if indeg[x] == 0)
        while avail:
            x = avail.pop(0)
            order.append(x)
            for y in sorted(out[x]):
                indeg[y] -= 1
                if indeg[y] == 0:
                    avail.append(y)
            avail.sort()
        return order

    def admissible_sink_sequence(self):
        """Vertex order x1, x2, ... where x1 is a sink of Q, x2 of sigma_x1 Q, etc.

        This is the reverse topological order; cycling through it repeats the
        pattern (every vertex reflected once returns the orientation).
        """
        return list(reversed(self.topological_order()))


def reflect_arrows(arrows, x):
    """The arrows tuple with every arrow at vertex x reversed, in place."""
    return tuple((h, t) if t == x or h == x else (t, h) for t, h in arrows)


# -- dimension vector helpers ----------------------------------------------

def dimension_vector(q: Quiver, alpha) -> tuple:
    """alpha as a tuple of q.n nonnegative ints.  Raises ValueError on a
    wrong length, a negative entry or an entry that is not an int, so a
    bool, a float or a str is rejected rather than read as an integer."""
    alpha = tuple(alpha)
    if len(alpha) != q.n:
        raise ValueError(f"dimension vector has {len(alpha)} entries for {q.n} vertices")
    if set(map(type, alpha)) != {int}:
        raise ValueError(f"dimension vector {alpha} has an entry that is not an int")
    if min(alpha) < 0:
        raise ValueError(f"dimension vector {alpha} has a negative entry")
    return alpha


def simple_root(n, x):
    return tuple(1 if i == x else 0 for i in range(1, n + 1))


# -- Euler form --------------------------------------------------------------

def euler_form(q: Quiver, a, b) -> int:
    """<a,b> = sum a_x b_x - sum over arrows a_{ta} b_{ha}.  Entries may be
    negative; one whose type is not int (a bool, a float, a str) raises
    QuiverError rather than being truncated."""
    if len(a) != q.n or len(b) != q.n:
        raise QuiverError("dimension vector length mismatch")
    if set(map(type, a)) | set(map(type, b)) != {int}:
        raise QuiverError(
            f"vectors {tuple(a)}, {tuple(b)} have an entry that is not an int")
    val = sum(x * y for x, y in zip(a, b))
    val -= sum(a[t - 1] * b[h - 1] for t, h in q.arrows)
    return val


def tits_form(q: Quiver, a) -> int:
    return euler_form(q, a, a)


# -- classification of the underlying graph ---------------------------------

class Classification(NamedTuple):
    kind: str  # "dynkin" | "non-dynkin"
    letter: str | None = None  # "A" | "D" | "E"
    rank: int | None = None

    @property
    def is_dynkin(self):
        return self.kind == "dynkin"


NON_DYNKIN = Classification("non-dynkin")


def _branch_lengths(adj, center):
    """Arm lengths of a tree from its only branching vertex, over the
    0-based neighbour tuples of ``Quiver.adjacency``."""
    lengths = []
    for start in adj[center]:
        ln = 1
        prev, cur = center, start
        while True:
            nxt = [y for y in adj[cur] if y != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            ln += 1
        lengths.append(ln)
    return sorted(lengths)


def classify(q: Quiver) -> Classification:
    """Classify the underlying undirected graph of a quiver as Dynkin
    (A/D/E, rank) or not.  Disconnected quivers are not Dynkin (the
    analysis pipeline always works with connected quivers).
    """
    n, adj = q.n, q.adjacency
    # connectivity
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    # a connected graph with n - 1 edges is a tree, so has no parallel edges
    if len(seen) != n or len(q.arrows) != n - 1:
        return NON_DYNKIN

    degs = sorted(map(len, adj))
    if degs[-1] <= 2:
        return Classification("dynkin", "A", n)
    branch = [x for x in range(n) if len(adj[x]) >= 3]
    if degs[-1] > 3 or len(branch) != 1:
        return NON_DYNKIN
    a, b, c = _branch_lengths(adj, branch[0])
    if (a, b) == (1, 1):
        return Classification("dynkin", "D", c + 3)
    if (a, b) == (1, 2) and c <= 4:
        return Classification("dynkin", "E", c + 4)
    return NON_DYNKIN


def require_dynkin(q: Quiver) -> Classification:
    cls = classify(q)
    if not cls.is_dynkin:
        raise NonDynkinError("quiver is not of Dynkin type")
    return cls


# -- text file format --------------------------------------------------------

def parse_quiver_file(text: str) -> Quiver:
    """Parse the quiver text format: 'vertices n' then 'arrow t h' lines."""
    n = None
    arrows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if (parts[0], len(parts)) not in (("vertices", 2), ("arrow", 3)):
            raise QuiverError(f"line {lineno}: cannot parse {raw!r}")
        try:
            nums = [int(x) for x in parts[1:]]
        except ValueError:
            raise QuiverError(
                f"line {lineno}: {parts[0]} needs integers, got {raw!r}") from None
        if parts[0] == "vertices":
            if n is not None:
                raise QuiverError(f"line {lineno}: duplicate vertices line")
            n = nums[0]
        elif n is None:
            raise QuiverError(f"line {lineno}: arrow before vertices line")
        else:
            arrows.append(tuple(nums))
    if n is None:
        raise QuiverError("missing 'vertices n' line")
    return Quiver(n, tuple(arrows))


def format_quiver_file(q: Quiver) -> str:
    lines = [f"vertices {q.n}"]
    lines += [f"arrow {t} {h}" for t, h in q.arrows]
    return "\n".join(lines) + "\n"
