"""Finite line-incidence structures and the perp operator.

A structure is a finite set of lines carrying a reflexive, symmetric
incidence relation and nothing else.  Every further notion in this package
(sigma sets, derived points and planes, the axiom and theorem checkers) is
built from one primitive: ``perp(S)``, the set of lines incident to every
member of S.

Structures are immutable after construction.  All operations here are pure
functions of their inputs, so structures can be shared freely between
workers; results do not depend on evaluation order.  Line sets are exposed
as ``frozenset`` values; whenever iteration order matters (witness
selection, serialization) members are visited in ascending index order.

Internally each line carries an int bitmask of its incident lines, which
makes the AND-folds behind ``perp`` cheap.  The checkers walk these masks
from the structure to the verdict (the ``*_mask`` functions) and build
frozensets and labels only for a witness or a counterexample.  Public
functions that take line indices validate them once, on entry.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

DEFAULT_MAX_LINES = 4096
MAX_LINES_ENV = "LINESPACE_MAX_LINES"
# the largest n whose int32 keys n * (n + 1) + n, two lines and a padding
# line, stay below 2**31
LARGEST_MAX_LINES = 46339

# The layers of checks, in the order a battery runs them; the check registry
# files every check under one of them.
LAYERS = ("axioms", "theorems", "vy")


class LinespaceError(Exception):
    """Base class for every error this package raises deliberately."""


class StructureError(LinespaceError):
    """Bad structure data: malformed adjacency, unknown index, bad labels."""


class CapacityError(StructureError):
    """Line count exceeds the supported maximum."""


class PreconditionError(LinespaceError):
    """An operation was invoked outside its stated contract."""


class LabelInconsistencyError(LinespaceError):
    """The seeded point/plane classification failed verification.

    Carries a ``witness`` dict naming the violated constraint: two
    same-kind elements sharing zero lines (a join/meet vacancy) or more
    than one line, a point/plane pair sharing exactly one line, an
    incident pair whose two sigma classes do not yield one point and one
    plane, or a model element that is not derived, listed twice or left out.
    """

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


class MissingElementError(LinespaceError):
    """A meet or join lookup found no (or no unique) element; model is inconsistent."""


def line_cap() -> int:
    """Maximum supported line count; LINESPACE_MAX_LINES overrides the default."""
    raw = os.environ.get(MAX_LINES_ENV)
    if raw is None:
        return DEFAULT_MAX_LINES
    try:
        cap = int(raw)
    except ValueError:
        raise CapacityError(f"{MAX_LINES_ENV} must be an integer, got {raw!r}") from None
    if not 0 < cap <= LARGEST_MAX_LINES:
        raise CapacityError(f"{MAX_LINES_ENV} must be in [1, {LARGEST_MAX_LINES}], got {cap}")
    return cap


def _check_capacity(n: int) -> None:
    cap = line_cap()
    if n > cap:
        raise CapacityError(f"structure has {n} lines, cap is {cap}")


def lines_of_mask(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _is_index(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def mask_of_lines(lines: Iterable[int]) -> int:
    mask = 0
    for l in lines:
        mask |= 1 << l
    return mask


class IncidenceStructure:
    """A finite set of lines with a reflexive symmetric incidence relation.

    ``adjacency`` must be a square boolean matrix, symmetric with an
    all-true diagonal; both properties are enforced at construction and the
    matrix is frozen afterwards.  ``labels`` default to ``L0, L1, ...`` and
    must be unique, one per line.
    """

    __slots__ = ("name", "_adj", "_labels", "_index", "_masks", "_hash", "_cache")

    def __init__(self, adjacency, labels: Optional[Sequence[str]] = None, name: str = ""):
        adj = np.array(adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise StructureError(f"adjacency must be square, got shape {adj.shape}")
        n = adj.shape[0]
        _check_capacity(n)
        if not np.array_equal(adj, adj.T):
            i, j = map(int, np.argwhere(adj != adj.T)[0])
            raise StructureError(f"adjacency is not symmetric at ({i}, {j})")
        if n and not bool(adj.diagonal().all()):
            i = int(np.flatnonzero(~adj.diagonal())[0])
            raise StructureError(f"line {i} is marked non-incident to itself")
        if labels is None:
            labels = tuple(f"L{i}" for i in range(n))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise StructureError(f"{len(labels)} labels for {n} lines")
            if len(set(labels)) != n:
                raise StructureError("labels must be unique")
        adj.setflags(write=False)
        self.name = name
        self._adj = adj
        self._labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._masks: Optional[tuple[int, ...]] = None
        self._hash: Optional[int] = None
        self._cache: dict = {}

    @classmethod
    def from_skew_pairs(
        cls,
        line_count: int,
        skew_pairs: Iterable[tuple[int, int]] = (),
        labels: Optional[Sequence[str]] = None,
        name: str = "",
    ) -> "IncidenceStructure":
        """Build a structure in which every pair NOT listed is incident.

        A pair is two ints, not bools, or a row of an integer ndarray.
        Listing a pair twice (in either order) is accepted; a pair with
        equal endpoints is rejected, since reflexive incidence is built in.
        The line cap is checked before the matrix is allocated.  An ndarray
        of pairs is used without a copy.
        """
        if isinstance(skew_pairs, np.ndarray):
            pairs = np.asarray(skew_pairs)
            if pairs.size and pairs.dtype.kind not in "iu":  # np.array([]) is float64
                raise StructureError(f"skew pair {np.atleast_1d(pairs)[0].tolist()!r} must be two indices")
        else:
            pairs = list(skew_pairs)
            for entry in pairs:
                if not (isinstance(entry, (list, tuple)) and len(entry) == 2 and all(map(_is_index, entry))):
                    raise StructureError(f"skew pair {entry!r} must be two indices")
            pairs = np.array(pairs)
        if line_count < 0:
            raise StructureError("line_count must be >= 0")
        _check_capacity(line_count)
        if not len(pairs):
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise StructureError("skew pairs must be pairs of line indices")
        i, j = pairs.T
        out = (i < 0) | (i >= line_count) | (j < 0) | (j >= line_count)
        bad = np.flatnonzero(out | (i == j))
        if bad.size:
            k = bad[0]
            if out[k]:
                raise StructureError(f"skew pair ({i[k]}, {j[k]}) out of range")
            raise StructureError(f"line {i[k]} cannot be skew to itself")
        i, j = i.astype(np.intp, copy=False), j.astype(np.intp, copy=False)
        adj = np.ones((line_count, line_count), dtype=bool)
        adj[i, j] = False
        adj[j, i] = False
        return cls(adj, labels=labels, name=name)

    @property
    def line_count(self) -> int:
        return self._adj.shape[0]

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only view of the incidence matrix."""
        return self._adj

    @property
    def masks(self) -> tuple[int, ...]:
        """Per-line bitmask of incident lines (bit j set iff line j is incident)."""
        if self._masks is None:
            packed = np.packbits(self._adj, axis=1, bitorder="little")
            self._masks = tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
        return self._masks

    @property
    def full_mask(self) -> int:
        return (1 << self.line_count) - 1

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise StructureError(f"unknown line label {label!r}") from None

    def check_index(self, i: int) -> int:
        if not _is_index(i):
            raise StructureError(f"line index must be an integer, got {i!r}")
        if not 0 <= i < self.line_count:
            raise StructureError(f"line index {i} out of range [0, {self.line_count})")
        return int(i)

    def skew_pairs(self) -> list[tuple[int, int]]:
        """All non-incident unordered pairs, sorted."""
        out = []
        for i in range(self.line_count):
            for j in np.flatnonzero(~self._adj[i, i + 1 :]):
                out.append((i, i + 1 + int(j)))
        return out

    def cached(self, key, builder):
        """Package-internal memo table; safe because structures are immutable."""
        try:
            return self._cache[key]
        except KeyError:
            value = builder()
            self._cache[key] = value
            return value

    def __eq__(self, other) -> bool:
        if not isinstance(other, IncidenceStructure):
            return NotImplemented
        return self._labels == other._labels and np.array_equal(self._adj, other._adj)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._labels, self._adj.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return f"<IncidenceStructure{name} lines={self.line_count}>"


def _validated_lines(s: IncidenceStructure, lines: Iterable[int]) -> list[int]:
    return sorted({s.check_index(l) for l in lines})


def perp(s: IncidenceStructure, lines: Iterable[int]) -> frozenset[int]:
    """The set of lines incident to every member of ``lines``.

    The empty set perps to the full line set (vacuous quantifier).
    """
    members = _validated_lines(s, lines)
    mask = s.full_mask
    for l in members:
        mask &= s.masks[l]
    return frozenset(lines_of_mask(mask))


def perp_mask(s: IncidenceStructure, mask: int) -> int:
    """Mask-level perp; operand and result are line bitmasks."""
    out = s.full_mask
    masks = s.masks
    while mask:
        low = mask & -mask
        out &= masks[low.bit_length() - 1]
        mask ^= low
    return out


def bracket(s: IncidenceStructure, *lines: int) -> frozenset[int]:
    """Perp of the listed lines; duplicates are harmless, no lines means all."""
    return perp(s, lines)


def find_skew_pair_mask(s: IncidenceStructure, mset: int) -> Optional[tuple[int, int]]:
    """The lexicographically least skew pair of set bits of ``mset``, or None."""
    masks = s.masks
    rest = mset
    while rest:
        low = rest & -rest
        x = low.bit_length() - 1
        rest ^= low  # only partners above x remain
        cand = rest & ~masks[x]
        if cand:
            return (x, (cand & -cand).bit_length() - 1)
    return None


def find_skew_triple(
    s: IncidenceStructure, lines: Iterable[int]
) -> Optional[tuple[int, int, int]]:
    """Lexicographically least pairwise-skew triple within ``lines``, or None."""
    return find_skew_triple_mask(s, mask_of_lines(_validated_lines(s, lines)))


def find_skew_triple_mask(s: IncidenceStructure, mset: int) -> Optional[tuple[int, int, int]]:
    """Mask-level find_skew_triple: the least pairwise-skew triple of set bits."""
    masks = s.masks
    while mset:  # line by line, so a search that succeeds early walks few lines
        x = (mset & -mset).bit_length() - 1
        mset ^= 1 << x  # only partners above x remain
        rest = mset & ~masks[x]
        while rest:
            y = (rest & -rest).bit_length() - 1
            rest ^= 1 << y
            third = rest & ~masks[y]
            if third:
                return (x, y, (third & -third).bit_length() - 1)
    return None


def incident_pairs(s: IncidenceStructure) -> np.ndarray:
    """All incident distinct unordered pairs as a read-only (P, 2) int32
    array: one pair a < b per row, rows in lexicographic order; cached."""

    def build():
        pairs = np.argwhere(np.triu(s.adjacency, 1)).astype(np.int32)
        pairs.setflags(write=False)
        return pairs

    return s.cached("incident_pairs", build)


def _incidence(masks, width: int) -> np.ndarray:
    """Bool matrix whose row r holds the bits of ``masks[r]`` below ``width``."""
    nbytes = (width + 7) // 8
    raw = np.frombuffer(b"".join(x.to_bytes(nbytes, "little") for x in masks), np.uint8)
    rows = raw.reshape(len(masks), nbytes)
    return np.unpackbits(rows, axis=1, count=width, bitorder="little").view(bool)


def _words(rows: np.ndarray) -> np.ndarray:
    """Bool rows packed into little-endian uint64 words, at least one per row,
    bit j of a row at word j >> 6, bit j & 63."""
    packed = np.packbits(np.ascontiguousarray(rows), axis=-1, bitorder="little")
    out = np.zeros((*packed.shape[:-1], max(1, -(-packed.shape[-1] // 8)) * 8), np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view("<u8")


def _places(words: np.ndarray, width: int) -> np.ndarray:
    """The bool rows of ``_words`` rows, ``width`` places each."""
    raw = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=width, bitorder="little").view(bool)


def least_bits(rows: np.ndarray) -> np.ndarray:
    """Per row of ``_words`` words, the place of its least set bit, or -1."""
    w = (rows != 0).argmax(axis=1)
    word = rows[np.arange(len(rows)), w]
    # the exponent of the word's lowest bit, exact in a float
    return 64 * w + np.frexp((word & -word).astype(float))[1] - 1


def only_bits(rows: np.ndarray) -> np.ndarray:
    """Per row of ``_words`` words, the place of its only set bit, else -1."""
    top = rows.max(axis=1)
    one = ((rows != 0).sum(axis=1) == 1) & ((top & (top - 1)) == 0)
    return np.where(one, least_bits(rows), -1)


_CELLS_PER_STEP = 1 << 16  # (perp, line, line) cells per step over the perp table


def bit_rows(masks: Sequence[int], width: int) -> np.ndarray:
    """``masks`` of lines below ``width`` as packed rows, bit z at byte
    z >> 3, bit z & 7, and a trailing empty row, which perp -1 reads."""
    nbytes = width // 8 + 1
    packed = b"".join(x.to_bytes(nbytes, "little") for x in (*masks, 0))
    return np.frombuffer(packed, np.uint8).reshape(len(masks) + 1, nbytes)


@dataclass(frozen=True)
class PerpTable:
    """The distinct perps of the incident pairs and every fact of each perp.

    Pair p of ``pairs``, the (P, 2) array of ``incident_pairs``, has perp
    ``masks[perp[p]]``; ``masks`` holds the distinct perps in order of their
    first pair, pair ``first[k]``.  ``split[k]`` is whether incidence on
    sigma is two cliques: class 1, the lines skew to its least, and class 0;
    ``classes[k]`` holds them as line masks, which partition sigma.  On a
    split perp each sigma line is skew to exactly the other class, and no
    other line to any: its skew pairs are the |c0| |c1| pairs across, its
    incident pairs in sigma the C(|c0|, 2) + C(|c1|, 2) within.  So only the
    perps that do not split, ``unsplit``, ascending, keep rows: row u of
    ``lines`` lists perp ``unsplit[u]``'s lines ascending (its places),
    padded with line n, which meets every line, and ``skew[u, i]`` holds, as
    ``_words`` words, the places skew to place i, none iff i is not in sigma.

    A set that depends only on the perp of a pair, as sigma and its classes
    do, is kept as one ``bit_rows`` row per perp, as ``sigma`` keeps sigma,
    and read at a pair through ``index``; ``holds`` reads it.
    """

    line_count: int
    pairs: np.ndarray
    perp: np.ndarray
    masks: tuple[int, ...]
    first: np.ndarray
    unsplit: np.ndarray
    lines: np.ndarray
    skew: np.ndarray
    split: np.ndarray
    classes: list[tuple[int, int]]
    sigma: np.ndarray

    def local_pairs(self, incident: bool = False):
        """Per run of rows taken at once, width squared cells each, (u, x, y)
        in lexicographic order: each row u of ``lines`` and places x < y of
        its lines that are skew or, if ``incident``, incident and in sigma."""
        width = self.lines.shape[1]
        step = max(1, _CELLS_PER_STEP // (width**2 + 1))
        for lo in range(0, len(self.unsplit), step):
            related = _places(self.skew[lo : lo + step], width)
            if incident:  # sigma: the places skew to some place, the rows being symmetric
                related = ~related & related.any(axis=2)[:, :, None] & related.any(axis=1)[:, None, :]
            u, x, y = np.nonzero(related & np.triu(np.ones((width, width), bool), 1))
            yield lo + u, x, y

    def first_flagged(self, flag, incident: bool = False) -> tuple:
        """Judge the ``local_pairs`` of every unsplit perp, each a case of
        every pair of that perp: ``flag(u, x, y)`` marks the failing ones.
        Returns the first failing (u, x, y), in order of first pairs, with
        the cases a walk of the pairs meets up to it, or None with all the
        cases.  A flag marks no pair of a split perp, so a split perp's
        pairs are counted from its class sizes."""
        size = self.sizes
        count = np.where(self.split, (size * (size - 1) // 2).sum(axis=1) if incident else size.prod(axis=1), 0)
        for u, x, y in self.local_pairs(incident):
            k = self.unsplit[u]
            np.add.at(count, k, 1)
            bad = np.flatnonzero(flag(u, x, y))
            if len(bad):
                i = bad[0]
                before = count[self.perp[: self.first[k[i]]]].sum() + i - np.searchsorted(k, k[i])
                return (int(u[i]), int(x[i]), int(y[i])), int(before) + 1
        return None, int(count[self.perp].sum())

    @cached_property
    def sizes(self) -> np.ndarray:
        """Each perp's class sizes, a (perps, 2) int64 array, built on first use."""
        return np.array([(c0.bit_count(), c1.bit_count()) for c0, c1 in self.classes], np.int64).reshape(-1, 2)

    @cached_property
    def index(self) -> np.ndarray:
        """The n x n int32 pair-to-perp index, built on first use:
        ``index[x, y]`` is the perp of the incident pair {x, y}, both ways
        round, and -1 on the diagonal and the skew pairs."""
        index = np.full((self.line_count, self.line_count), -1, np.int32)
        index[self.pairs[:, 0], self.pairs[:, 1]] = index[self.pairs[:, 1], self.pairs[:, 0]] = self.perp
        return index

    def holds(self, rows: np.ndarray, x, y, z) -> np.ndarray:
        """Per entry and per stack of the perps' sets ``rows``, whether line z
        lies in the set of the pair {x, y}; false off the incident pairs."""
        k = np.take(self.index, x * self.line_count + y)
        byte = np.take(rows.reshape(*rows.shape[:-2], -1), k * rows.shape[-1] + (z >> 3), axis=-1)
        return (byte >> (z & 7) & 1).astype(bool)


def perp_table(s: IncidenceStructure) -> PerpTable:
    """The ``PerpTable`` of ``s``; cached.  Pairs are grouped by the int mask
    of their perp.  In bounded runs of perps, each one's lines, skew rows
    and sigma set are built with array operations, and its split judged:
    it holds iff every sigma place is skew to exactly the other class.  A
    run keeps the lines and skew rows of its perps that do not split."""

    def build():
        n = s.line_count
        masks = s.masks
        pairs = incident_pairs(s)
        a, b = pairs.T
        ids: dict[int, int] = {}
        perp = [ids.setdefault(masks[x] & masks[y], len(ids)) for x, y in zip(*pairs.T.tolist())]
        perp = np.array(perp, np.int64)
        size = np.array([x.bit_count() for x in ids], np.int64)
        width = int(size.max(initial=0))
        first = np.unique(perp, return_index=True)[1]
        kept = [(np.zeros((0, width), np.int32), np.zeros((0, width, max(1, -(-width // 64))), np.uint64))]
        split, least = np.zeros(len(ids), bool), np.zeros(len(ids), np.int32)
        sigma = np.zeros((len(ids) + 1, n // 8 + 1), np.uint8)  # as ``bit_rows``
        apart = np.zeros((n + 1, n + 1), bool)  # line n, the padding, is skew to no line
        apart[:n, :n] = ~s.adjacency
        step = max(1, _CELLS_PER_STEP // (max(n, width**2) + 1))
        for lo in range(0, len(ids), step):
            hi = min(lo + step, len(ids))
            # each perp's lines, ascending, fill its first places, row by row
            lines = np.full((hi - lo, width), n, np.int32)
            lines[np.arange(width) < size[lo:hi, None]] = np.nonzero(
                s.adjacency[a[first[lo:hi]]] & s.adjacency[b[first[lo:hi]]]
            )[1]
            skewed = np.take(apart, lines[:, :, None] * (n + 1) + lines[:, None, :])
            run = _words(skewed)
            sig = run.any(axis=2)
            r, low = np.arange(hi - lo), sig.argmax(axis=1)  # the least sigma place, else 0, skew to none
            two = skewed[r, low]  # class 1: the sigma places skew to it
            one = run[r, low]
            zero = np.bitwise_or.reduce(run, axis=1) ^ one  # sigma, the union of the rows, less class 1
            other = np.where(two[:, :, None], zero[:, None], one[:, None])  # what each row should be
            ok = split[lo:hi] = sig.any(axis=1) & ((run == other).all(axis=2) | ~sig).all(axis=1)
            least[lo:hi] = lines[r, low]
            kept.append((lines[~ok], run[~ok]))
            rows = np.zeros((hi - lo, n + 1), bool)  # column n: the padding
            rows[r[:, None], lines] = sig
            sigma[lo:hi, : -(-n // 8)] = np.packbits(rows[:, :n], axis=1, bitorder="little")
        raw, nbytes = memoryview(sigma).cast("B"), sigma.shape[1]  # no copy
        sets = (int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, len(ids) * nbytes, nbytes))
        classes = [(x & masks[l], x & ~masks[l]) for x, l in zip(sets, least.tolist())]
        lines, skew = map(np.concatenate, zip(*kept))
        return PerpTable(n, pairs, perp, tuple(ids), first, np.flatnonzero(~split), lines, skew, split, classes, sigma)

    return s.cached("perp_table", build)


def labels_of(s: IncidenceStructure, lines: Iterable[int]) -> list[str]:
    """Labels of the given lines in ascending index order."""
    return [s.labels[i] for i in sorted(set(lines))]
