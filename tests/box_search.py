"""Full-box class search, used by the tests only as an oracle.

The selftest's box search (C9) solves the K- and C-degree conditions for two
pivot coordinates and scans the rest of the box.  This is the scan it
replaced: every point of the whole ``(2b+1)^rank`` box is tested against all
three defining conditions, so the two must find the same classes.
"""

from itertools import product as iterproduct

from adecox import DivisorClass, basis_class, pair
from adecox.curves import ENUMERATORS, KINDS


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
    units = [basis_class(lattice, label) for label in lattice.basis_labels]
    gk = [pair(lattice, e, lattice.K) for e in units]
    gc = [pair(lattice, e, lattice.C) for e in units]
    found = []
    for coords in iterproduct(range(-bound, bound + 1), repeat=rank):
        if sum(a * b for a, b in zip(coords, gk)) != k_int:
            continue
        if sum(a * b for a, b in zip(coords, gc)) != 0:
            continue
        cls = DivisorClass(coords)
        if pair(lattice, cls, cls) == self_int:
            found.append(cls)
    return frozenset(found)
