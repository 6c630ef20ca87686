"""The warm workload: one process answering a seeded stream of small queries.

``session.py SRC SEED TRACE MODE`` imports the package, warms up a fixed
set of surfaces (E4-E8, D4-D6, A4) and prints ``ready``.  MODE ``setup``
stops there.  MODE ``stream`` then reads commands on stdin: ``run S``
answers blocks of queries for S seconds and prints ``paused``; ``end``
prints the result.  The pauses let the parent take set-up samples while
this process stays warm.  MODE ``blocks:N`` answers N blocks without
commands (the traced run).  The result is one JSON line with the latencies
in ns.

The mix is synthetic, not taken from measured traffic.  Every block holds
one query of each kind on each surface, so every surface gets the same
share and every seed asks for the same mix.  The seed draws which class,
ruling, line or root each query names.  Within a (surface, kind) the choice
is Zipf-like (weight 1/rank^1.1 over a seeded ranking), so popular keys
repeat as they would for a user exploring a few surfaces.  The share of
queries whose key was already asked is reported as ``repeat_share``.

Results are checked after each block, outside the timed calls, against
values written out here from the package's documented conventions.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from array import array
from fractions import Fraction
from itertools import accumulate

from ops import d_classes, positions
from spans import Tracer

SURFACES = (("E", 4), ("E", 5), ("E", 6), ("E", 7), ("E", 8), ("D", 4), ("D", 5), ("D", 6), ("A", 4))
ZIPF_S = 1.1
GRADED_MAX_DEGREE = 4
WRONG_RESULT = 3  # exit code; 1 is left to uncaught exceptions
# Repeats are counted over the first blocks only, so the share and the
# memory of the key set do not depend on how many blocks a run reaches.
REPEAT_BLOCKS = 150
# Latencies go to a preallocated array, so the benchmark's own memory does
# not grow with the number of queries a run reaches.
LATENCY_CAPACITY = 400_000


def pairing(family: str, x: tuple, y: tuple) -> int:
    """Intersection pairing in the fixed bases (see adecox.lattice)."""
    if family == "D":
        return x[0] * y[1] + x[1] * y[0] - sum(a * b for a, b in zip(x[2:], y[2:]))
    return x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:]))


def simple_roots(family: str, n: int) -> list[tuple]:
    """Simple roots in the conventions documented in adecox.roots."""
    rank = n + 2
    if family == "A":
        return [_diff(rank, i + 1, i) for i in range(1, n + 1)]
    # alpha_1 = -h + l1 + l2 + l3 (E) or -f + l1 + l2 (D), then l_i - l_(i-1).
    first_l = 1 if family == "E" else 2
    head = [0] * rank
    head[0] = -1
    for i in range(first_l, first_l + (3 if family == "E" else 2)):
        head[i] = 1
    return [tuple(head)] + [_diff(rank, first_l + i, first_l + i - 1) for i in range(1, n)]


def _diff(rank: int, i: int, j: int) -> tuple:
    v = [0] * rank
    v[i] += 1
    v[j] -= 1
    return tuple(v)


def zipf_cum(size: int) -> list[float]:
    return list(accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(size)))


class Surface:
    """One warmed-up surface: package objects plus seeded query pools."""

    def __init__(self, A, rng: random.Random, family: str, n: int, t):
        self.family, self.label = family, f"{family}{n}"
        lat = self.lat = t.call("lattice.build", A.build_lattice, A.SurfaceFamily(family, n))
        self.system = t.call("roots.build", A.build_root_system, lat,
                             count=lambda s: len(s.positive_roots))
        enum = lambda fn: t.call("curves.enumerate", fn, lat, count=len)  # noqa: E731
        self.lines = enum(A.enumerate_lines)
        rulings = enum(A.enumerate_rulings).classes
        roots = enum(A.enumerate_roots).classes
        self.line_set = frozenset(self.lines.classes)
        self.alphas = simple_roots(family, n)
        self.c_index = lat.C.coords.index(1)
        shift = A.anticanonical_shift(lat)
        # (class, expected) pools; the expected values restate the package docs.
        census: list = []
        graded: list = []
        if family == "E":
            if n <= 7:
                census += [(r, (n - 1, 2, n - 3)) for r in rulings]
            if n == 7:
                census.append((shift, (28, 3, 25)))
            if n == 8:
                census += [(shift, (2, 2, 0)), (shift + shift, (123, 4, 119))]
            sections = [(l, 1) for l in self.lines] + [(r, 2) for r in rulings]
            sections += {7: [(shift, 3)], 8: [(shift, 2), (shift + shift, 4)]}.get(n, [])
            points = list(self.lines.classes + rulings)
        else:
            if family == "D":
                census = [(A.basis_class(lat, "f"), (n, 2, n - 2))]
                config = A.SurfaceConfigD(tuple(Fraction(p) for p in positions(rng, n)))
                self.presentation = A.dn_ideal(lat, config)
                sections = [(A.DivisorClass(c), dim) for c, _, dim in d_classes(n, GRADED_MAX_DEGREE)]
            else:
                self.presentation = A.cox_presentation(lat)
                sections = [(A.DivisorClass((0,) + b), 1) for b in _compositions(n + 1, GRADED_MAX_DEGREE)]
            graded = [(c, dim) for c, dim in sections if A.degree(lat, c) > 0]
            points = [c for c, _ in sections]
            # Fill the monomial buckets of every degree the stream asks for.
            warmed = set()
            for c, _ in graded:
                if A.degree(lat, c) not in warmed:
                    warmed.add(A.degree(lat, c))
                    t.call("cox.graded_piece_dim", A.graded_piece_dim, self.presentation, lat, c)
        pairs = [(c, _line_pairs(family, n, c, shift, want)) for c, want in census]
        self.pools = {}
        for kind, pool in (
            ("census", census), ("section_dim", sections), ("graded", graded), ("torus", points),
            ("orbit", list(self.lines.classes)), ("x", points), ("root", list(roots)), ("pairs", pairs),
        ):
            if pool:
                order = list(range(len(pool)))
                rng.shuffle(order)
                self.pools[kind] = ([pool[i] for i in order], zipf_cum(len(pool)))

    def draw(self, rng: random.Random, kind: str, k: int):
        pool, cum = self.pools[kind]
        return [(i, pool[i]) for i in rng.choices(range(len(pool)), cum_weights=cum, k=k)]


def _line_pairs(family: str, n: int, target, shift, census: tuple) -> int:
    """Line pairs summing to a census target: its monomials minus the extra
    (E, 8) products k1, k2 (target -K + C) or k1^2, k1 k2, k2^2 (-2K + 2C)."""
    if family == "E" and n == 8:
        return census[0] - (2 if target == shift else 3)
    return census[0]


def _compositions(parts: int, max_total: int):
    """Nonnegative integer vectors of length ``parts`` with sum <= max_total."""
    if parts == 0:
        yield ()
        return
    for first in range(max_total + 1):
        for tail in _compositions(parts - 1, max_total - first):
            yield (first,) + tail


# Span name of each query kind, and how to size the work of its result.
SPANS = {
    "census": "cox.census",
    "section_dim": "cox.section_dim",
    "graded": "cox.graded_piece_dim",
    "torus": "cox.torus_character",
    "orbit": "roots.orbit",
    "reflect": "roots.reflect",
    "pair": "lattice.pair",
    "pairs": "curves.pairs_of_lines",
}
COUNTS = {"census": lambda r: r.monomials, "orbit": len}


def make_block(A, rng: random.Random, surfaces: list[Surface]) -> list[tuple]:
    """One block: (kind, surface, key, fn, args, expected) per query, shuffled."""
    block = []
    for s in surfaces:
        lat = s.lat
        if "census" in s.pools:
            for i, (c, want) in s.draw(rng, "census", 1):
                block.append(("census", s, i, A.relation_census, (lat, c), want))
            for i, (c, want) in s.draw(rng, "pairs", 1):
                block.append(("pairs", s, i, A.pairs_of_lines_summing_to, (lat, c, s.lines), want))
        for i, (c, want) in s.draw(rng, "section_dim", 1):
            block.append(("section_dim", s, i, A.section_dim, (lat, c), want))
        if "graded" in s.pools:
            for i, (c, want) in s.draw(rng, "graded", 1):
                block.append(("graded", s, i, A.graded_piece_dim, (s.presentation, lat, c), want))
        for i, c in s.draw(rng, "torus", 1):
            block.append(("torus", s, i, A.torus_character, (lat, c), None))
        for i, c in s.draw(rng, "orbit", 1):
            block.append(("orbit", s, i, A.weyl_orbit, (s.system, c), None))
        (i, x), (k, y) = s.draw(rng, "x", 2)
        for j, alpha in s.draw(rng, "root", 1):
            block.append(("reflect", s, (i, j), A.reflect, (lat, x, alpha), None))
        block.append(("pair", s, (i, k), A.pair, (lat, x, y), None))
    rng.shuffle(block)
    return block


def check(kind: str, s: Surface, args: tuple, want, got) -> str | None:
    """None if ``got`` is right, else a description of the difference."""
    if kind == "census":
        got = (got.monomials, got.sections, got.relations)
    elif kind == "torus":
        c = args[1].coords
        reduced = tuple(0 if i == s.c_index else x for i, x in enumerate(c))
        want = (reduced, tuple(-pairing(s.family, c, a) for a in s.alphas))
        got = (got[0].coords, got[1])
    elif kind == "orbit":
        want, got = len(s.line_set), len(got) if frozenset(got.classes) == s.line_set else -1
    elif kind == "reflect":
        x, alpha = args[1].coords, args[2].coords
        t = pairing(s.family, x, alpha)
        want = tuple(a + t * b for a, b in zip(x, alpha))
        got = got.coords
    elif kind == "pair":
        want = pairing(s.family, args[1].coords, args[2].coords)
    if got == want:
        return None
    return f"{kind} on {s.label} at {args[1:]}: got {got!r}, expected {want!r}"


def run_plain(block: list[tuple]) -> tuple[list, list[int], int]:
    """Answer a block; results, latencies in ns, and the block's window in ns.

    In a traced session the tracer must be disabled around this call."""
    pc = time.perf_counter_ns
    results: list = [None] * len(block)
    lat = [0] * len(block)
    b0 = pc()
    for q, (_, _, _, fn, args, _) in enumerate(block):
        s0 = pc()
        try:
            results[q] = fn(*args)
        except Exception as exc:  # a failed query is counted, not fatal
            results[q] = exc
        lat[q] = pc() - s0
    return results, lat, pc() - b0


def run_traced(block: list[tuple], tracer, base: int) -> tuple[list, list[int]]:
    """Answer a block with one span per query; op ids start at ``base``."""
    results: list = [None] * len(block)
    lat = [0] * len(block)
    for q, (kind, _, _, fn, args, _) in enumerate(block):
        tracer.op_id = base + q
        tracer.stack = []
        span = tracer.open(SPANS[kind])
        try:
            results[q] = fn(*args)
        except Exception as exc:  # a failed query is counted, not fatal
            results[q] = exc
        tracer.close(span)
        lat[q] = span[5] - span[4]
        if kind in COUNTS and not isinstance(results[q], Exception):
            span[6] = COUNTS[kind](results[q])
    return results, lat


def check_block(block: list[tuple], results: list) -> str | None:
    for (kind, s, _, _, args, want), got in zip(block, results):
        if not isinstance(got, Exception):
            problem = check(kind, s, args, want, got)
            if problem:
                return problem
    return None


class Stream:
    """Answers blocks; keeps the latencies, the counts and the repeat share."""

    def __init__(self, A, rng: random.Random, surfaces: list[Surface], tracer):
        self.A, self.rng, self.surfaces, self.tracer = A, rng, surfaces, tracer
        self.latencies = array("q", bytes(8 * LATENCY_CAPACITY))
        self.total = 0
        self.counts: dict[str, int] = {}
        self.seen: set = set()
        self.repeats = self.keyed = self.failed = self.blocks = 0
        self.busy_ns = self.untraced_ns = 0

    def block(self) -> str | None:
        """Answer one block; a description of a wrong result, or None."""
        block = make_block(self.A, self.rng, self.surfaces)
        tracer = self.tracer
        if tracer.enabled:
            # The block runs untraced and traced, in alternating order, so the
            # difference is the tracing overhead at the same machine speed.
            if self.blocks % 2:
                results, lat_block = run_traced(block, tracer, self.total)
            tracer.enabled = False
            plain, plain_lat, _ = run_plain(block)
            tracer.enabled = True
            if not self.blocks % 2:
                results, lat_block = run_traced(block, tracer, self.total)
            self.untraced_ns += sum(plain_lat)
            problem = check_block(block, plain)
        else:
            results, lat_block, window = run_plain(block)
            self.busy_ns += window
            problem = None
        problem = problem or check_block(block, results)
        if problem:
            return problem
        for q, (kind, s, key, _, _, _) in enumerate(block):
            if self.blocks < REPEAT_BLOCKS:
                full_key = (kind, s.label, key)
                self.repeats += full_key in self.seen
                self.keyed += 1
                self.seen.add(full_key)
            self.counts[kind] = self.counts.get(kind, 0) + 1
            if isinstance(results[q], Exception):
                self.failed += 1
                lat_block[q] = -1
        total = self.total
        if total + len(lat_block) <= LATENCY_CAPACITY:
            self.latencies[total:total + len(lat_block)] = array("q", lat_block)
        else:
            del self.latencies[total:]
            self.latencies.extend(lat_block)
        self.total += len(lat_block)
        self.blocks += 1
        return None

    def result(self) -> dict:
        out = {
            # Peak RSS of the work, read before the output below adds to it.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "latencies_ns": self.latencies[:self.total].tolist(),
            "busy_s": self.busy_ns / 1e9,
            "blocks": self.blocks,
            "failed": self.failed,
            "repeat_share": self.repeats / self.keyed,
            "counts": self.counts,
        }
        if self.tracer.enabled:
            out["spans"] = self.tracer.spans
            out["untraced_s"] = self.untraced_ns / 1e9
        return out


def main(argv: list[str]) -> int:
    src, seed, trace, mode = argv[1], int(argv[2]), argv[3] == "1", argv[4]
    sys.path.insert(0, src)
    import adecox as A

    tracer = Tracer(trace, op_id="setup")
    if trace:
        from adecox import cox, flag

        tracer.wrap_rank(cox, flag)
    rng = random.Random(seed)
    surfaces = [Surface(A, rng, family, n, tracer) for family, n in SURFACES]
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if mode == "setup":
        return 0
    stream = Stream(A, rng, surfaces, tracer)
    problem = None
    if mode.startswith("blocks:"):
        for _ in range(int(mode.split(":")[1])):
            problem = stream.block()
            if problem:
                break
    else:
        for command in iter(sys.stdin.readline, ""):
            if command.split()[0] == "end":
                break
            stop = time.perf_counter_ns() + float(command.split()[1]) * 1e9
            while not problem and time.perf_counter_ns() < stop:
                problem = stream.block()
            if problem:
                break
            sys.stdout.write("paused\n")
            sys.stdout.flush()
    if problem:
        sys.stderr.write(f"session: wrong result: {problem}\n")
        return WRONG_RESULT
    sys.stdout.write(json.dumps(stream.result()) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
