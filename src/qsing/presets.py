"""Built-in quiver/dimension presets for the worked examples.

Vertex numbering: the long row first (left to right), the branch vertex
last; dimension vectors render as (row;branch).
"""

from __future__ import annotations

from .quiver import Quiver

E6_QUIVER = Quiver(6, ((1, 2), (2, 3), (4, 3), (5, 4), (6, 3)))
E8_QUIVER = Quiver(8, ((1, 2), (2, 3), (4, 3), (5, 4), (6, 5), (7, 6), (8, 3)))


def preset(name, n=1, m=1):
    """Returns (quiver, alpha, selected simple indices or None, branch_last).
    The examples are indexed by n, m >= 1: raises ValueError unless both
    are ints (a bool is not) of at least 1, and unless each index the
    example does not read, m of e8-pos and both of e8-notred, is 1."""
    for what, v in (("n", n), ("m", m)):
        if type(v) is not int or v < 1:
            raise ValueError(f"preset index {what} = {v!r} is not an int >= 1")
        if v != 1 and what not in _INDICES.get(name, "nm"):  # an unknown name: KeyError below
            raise ValueError(f"preset {name} has no index {what}: it must be 1, not {v}")
    if name == "e6-ex1":
        alpha = (n, 2 * n + m, 2 * n + m, 2 * n + m, n, n + m)
        return E6_QUIVER, alpha, None, True
    if name == "e8-notred":
        alpha = (2, 4, 7, 4, 3, 2, 1, 3)
        return E8_QUIVER, alpha, None, True
    if name == "e8-pos":
        alpha = tuple(n * x for x in (2, 4, 7, 4, 3, 2, 1, 3))
        # the two simples studied in the positive-root example, by their
        # position in the lexicographic ordering of the perpendicular simples
        return E8_QUIVER, alpha, (2, 4), True
    raise KeyError(f"unknown preset {name!r}; available: e6-ex1, e8-notred, e8-pos")


PRESET_NAMES = ("e6-ex1", "e8-notred", "e8-pos")
# the indices each example reads; e8-notred is one dimension vector
_INDICES = {"e6-ex1": "nm", "e8-notred": "", "e8-pos": "n"}
