"""Full-box class search, used by the tests only as an oracle.

The selftest's box search (C9) solves the K- and C-degree conditions for two
pivot coordinates and scans the rest of the box.  This is the scan it
replaced: every point of the whole ``(2b+1)^rank`` box is tested against all
three defining conditions, so the two must find the same classes.
"""

from itertools import product as iterproduct

from adecox import DivisorClass
from adecox.curves import ENUMERATORS, KINDS
from adecox.lattice import gram_vector


def full_box_classes(lattice, kind):
    """Box search oracle: scan twice the coordinate spread of the fast result.

    The fast enumeration is provably complete, so its coordinate spread
    bounds the truth; doubling it gives the box room to expose any class a
    buggy pruning bound would have cut off.
    """
    self_int, k_int = KINDS[kind]
    fast = ENUMERATORS[kind](lattice)
    spread = max(
        (max(abs(c) for c in cls.coords) for cls in fast), default=1
    )
    bound = 2 * max(spread, 1)
    rank = lattice.rank
    gk = gram_vector(lattice, lattice.K)
    gc = gram_vector(lattice, lattice.C)
    gram = lattice.gram
    found = []
    for coords in iterproduct(range(-bound, bound + 1), repeat=rank):
        if sum(a * b for a, b in zip(coords, gk)) != k_int:
            continue
        if sum(a * b for a, b in zip(coords, gc)) != 0:
            continue
        q = 0
        for i, ci in enumerate(coords):
            if ci:
                row = gram[i]
                q += ci * sum(row[j] * coords[j] for j in range(rank) if coords[j])
        if q == self_int:
            found.append(DivisorClass(coords))
    return frozenset(found)
