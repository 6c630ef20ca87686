"""Picard lattices of the three rational surface families.

Each surface family carries a based unimodular lattice of signature
``(1, rank-1)`` together with two distinguished classes: the canonical
class ``K`` and a marking class ``C`` (the class of the fixed curve that
selects the family).  The three families are

* ``E`` (blown-up plane, marking a (-1)-curve): basis ``h, l1, ..., l(n+1)``,
  ``K = -3h + sum(l_i)``, ``C = l(n+1)``, for ``3 <= n <= 8``;
* ``D`` (blown-up quadric, marking a fiber): basis ``f, s, l1, ..., ln``
  with ``f.s = 1`` the hyperbolic pairing, ``K = -2f - 2s + sum(l_i)``,
  ``C = f``, for ``n >= 2``;
* ``A`` (blown-up plane, marking a cubic's hyperplane class): same basis
  and ``K`` as ``E`` but ``C = h``, for ``n >= 1``.

``n = 3`` in the ``E`` family and ``n = 2`` in the ``D`` family are the
degenerate small-rank cases; they are supported but flagged.

Every Gram matrix here has one nonzero entry per row: ``diag(1, -1, ...)``
on ``E`` and ``A``, the ``f.s`` hyperbolic block plus ``-I`` on ``D``.  The
lattice keeps it once, as sparse rows, and only this module reads them:
`pair` walks them, `reflect` walks them once for both ``alpha . alpha`` and
``x . alpha``, and `covector` turns a class into the sparse covector that
other modules pair with.  The lattice keeps the covectors of ``C`` and ``K``
(``c_covector``, ``k_covector``), so pairing a class with either is a dot
product.  The pairings are plain loops: they are the most common calls of
a warm process, where a generator expression costs two to three times as
much (E8 `roots.weight_of`: 3.5 us with one, 1.2 us as a loop, in process
on Python 3.11.7).
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from operator import add, neg, sub

E_RANGE = range(3, 9)

# Entries kept by each module-level cache, whether keyed on a surface, on a
# root system or on a root system and caller-supplied weights.  A selftest
# run touches 16 lattices and 48 (lattice, kind) enumeration keys.
CACHE_MAXSIZE = 64


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass names its attributes in ``__slots__`` and, in constructor
    order, the ones that make up its value in ``_fields``.  The base
    ``__init__`` binds ``_fields`` to positional and keyword arguments, as
    a dataclass constructor does; a subclass that validates or derives
    passes its fields on positionally and sets derived attributes through
    ``_set``.  A class whose value follows from a few inputs takes only
    those as fields: a lattice its family, a root system its lattice, a
    presentation its lattice and relations; all else is derived.  Equality,
    hash and repr read ``_fields`` only, as a frozen dataclass's do: an
    instance equals only an instance of the same class with equal fields,
    hashes as the tuple of its fields, and shows as ``Name(field=value,
    ...)``.  Assigning or deleting an attribute afterwards raises
    ``AttributeError``.  Copies and pickles are rebuilt through
    ``__init__`` from the fields, which derives the rest again (a cached
    string hash differs between processes).

    The package does not use :mod:`dataclasses`: importing it (with
    :mod:`inspect`) and decorating 16 classes took about 27 ms of every cold
    start (Python 3.11.7, 2 vCPU Intel Xeon), most of ``import adecox``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            name = self.__class__.__qualname__
            if len(args) > len(fields):
                raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
            for key in kwargs:
                if key not in fields:
                    raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
                if fields.index(key) < len(args):
                    raise TypeError(f"{name}() got multiple values for argument {key!r}")
            missing = [key for key in fields[len(args) :] if key not in kwargs]
            if missing:
                raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
            args += tuple(kwargs[key] for key in fields[len(args) :])
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values()


@total_ordering
class DivisorClass(_Frozen):
    """An integer coordinate vector with respect to a lattice basis.

    Classes compare, hash and sort by their coordinate tuple.  ``__init__``,
    ``__eq__``, ``__hash__`` and ``__lt__`` are written out because classes
    are built, hashed and sorted in the inner loops; ``<=``, ``>`` and
    ``>=`` are derived from ``<``.
    """

    __slots__ = _fields = ("coords",)

    def __init__(self, coords: tuple[int, ...]):
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coords,))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.coords < other.coords
        return NotImplemented

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(map(neg, self.coords)))

    def __mul__(self, k: int) -> "DivisorClass":
        return DivisorClass(tuple([k * a for a in self.coords]))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"DivisorClass{self.coords}"


class SurfaceFamily(_Frozen):
    __slots__ = _fields = ("kind", "n")

    def __init__(self, kind: str, n: int):
        if kind not in ("A", "D", "E"):
            raise ValueError(f"unknown family kind {kind!r}, expected A, D or E")
        if kind == "A" and n < 1:
            raise ValueError("A family needs n >= 1")
        if kind == "D" and n < 2:
            raise ValueError("D family needs n >= 2")
        if kind == "E" and n not in E_RANGE:
            raise ValueError("E family needs 3 <= n <= 8")
        super().__init__(kind, n)

    @property
    def rank(self) -> int:
        return self.n + 2

    @property
    def is_appendix_case(self) -> bool:
        """The two degenerate small-rank cases (E, 3) and (D, 2)."""
        return (self.kind, self.n) in (("E", 3), ("D", 2))

    @property
    def label(self) -> str:
        return f"{self.kind}{self.n}"


class IntersectionLattice(_Frozen):
    # The family is the whole key: the basis, the form, ``K`` and ``C`` are
    # derived from it and take no part in equality, hash or repr.  The form
    # is kept once, as ``gram_rows``: row ``i`` holds the nonzero ``(column,
    # entry)`` pairs of the Gram matrix, one per row on every family.  Only
    # this module reads it; the others go through `pair`, `reflect` and
    # `covector`.  ``c_covector`` and ``k_covector`` are ``covector(self, C)``
    # and ``covector(self, K)``, so that pairing a class with ``C`` or ``K``
    # is a dot product.  The hash is taken once: lru caches key on lattices
    # and root systems.
    _fields = ("family",)
    __slots__ = _fields + ("basis_labels", "gram_rows", "K", "C", "c_covector", "k_covector", "_hash")

    def __init__(self, family: SurfaceFamily):
        super().__init__(family)
        n = family.n
        rank = family.rank
        if family.kind in ("E", "A"):
            labels = ("h",) + tuple(f"l{i}" for i in range(1, n + 2))
            rows = (((0, 1),),) + tuple(((i, -1),) for i in range(1, rank))
            K = DivisorClass((-3,) + (1,) * (n + 1))
            if family.kind == "E":
                C = DivisorClass((0,) * (rank - 1) + (1,))
            else:
                C = DivisorClass((1,) + (0,) * (rank - 1))
        else:
            labels = ("f", "s") + tuple(f"l{i}" for i in range(1, n + 1))
            rows = (((1, 1),), ((0, 1),)) + tuple(((i, -1),) for i in range(2, rank))
            K = DivisorClass((-2, -2) + (1,) * n)
            C = DivisorClass((1,) + (0,) * (rank - 1))
        self._set(basis_labels=labels, gram_rows=rows, K=K, C=C)
        self._set(c_covector=covector(self, C), k_covector=covector(self, K), _hash=hash(self._values()))

    def __hash__(self) -> int:
        return self._hash

    @property
    def rank(self) -> int:
        return len(self.basis_labels)


@lru_cache(maxsize=CACHE_MAXSIZE)
def build_lattice(family: SurfaceFamily) -> IntersectionLattice:
    return IntersectionLattice(family)


def basis_class(lattice: IntersectionLattice, label: str) -> DivisorClass:
    i = lattice.basis_labels.index(label)
    return DivisorClass(tuple(1 if j == i else 0 for j in range(lattice.rank)))


def pair(lattice: IntersectionLattice, d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection pairing of two classes."""
    x, y = d1.coords, d2.coords
    rows = lattice.gram_rows
    if len(x) != len(rows) or len(y) != len(rows):
        raise ValueError("coordinate length does not match the lattice rank")
    total = 0
    for a, row in zip(x, rows):
        if a:
            for j, g in row:
                total += a * g * y[j]
    return total


def reflect(lattice: IntersectionLattice, x: DivisorClass, alpha: DivisorClass) -> DivisorClass:
    """Reflection in a root: ``x -> x + (x . alpha) alpha`` for norm -2 roots.

    One pass over the form gives both ``alpha . alpha``, which must be -2,
    and ``alpha . x``; the form is symmetric, so both are sums over the rows
    where ``alpha`` is nonzero, and the others are skipped."""
    xs, ys = x.coords, alpha.coords
    rows = lattice.gram_rows
    if len(xs) != len(rows) or len(ys) != len(rows):
        raise ValueError("coordinate length does not match the lattice rank")
    norm = t = 0
    for b, row in zip(ys, rows):
        if b:
            for j, g in row:
                norm += b * g * ys[j]
                t += b * g * xs[j]
    if norm != -2:
        raise ValueError("reflection class must have self intersection -2")
    return DivisorClass(tuple([a + t * b for a, b in zip(xs, ys)]))


def degree(lattice: IntersectionLattice, d: DivisorClass) -> int:
    """Anticanonical degree ``D . (-K)``."""
    return -pair(lattice, d, lattice.K)


def covector(lattice: IntersectionLattice, d: DivisorClass) -> tuple[tuple[int, int], ...]:
    """The covector ``gram @ d`` as its nonzero ``(index, entry)`` pairs, so
    that pairing a class with ``d`` is a sparse dot product."""
    x = d.coords
    out = []
    for i, row in enumerate(lattice.gram_rows):
        v = 0
        for j, g in row:
            v += g * x[j]
        if v:
            out.append((i, v))
    return tuple(out)


def sparse_entries(vector) -> tuple[tuple[int, int], ...]:
    """The nonzero entries of a vector as ``(index, value)`` pairs."""
    return tuple([(i, v) for i, v in enumerate(vector) if v])
