"""Independent PG(3,q) oracle for checking generated files.

It reads only the subspace representatives of the generator's sidecar and
recomputes, with its own arithmetic mod q, which lines meet and which
lines form each point star and each plane pencil.  It shares no code with
the package, so it can judge the package's structure and model files.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np


def _normalized(vec, q):
    """Scale a nonzero vector so its first nonzero entry is 1."""
    lead = next(v for v in vec if v)
    inv = pow(lead, q - 2, q)
    return tuple(v * inv % q for v in vec)


def projective_points(q: int) -> list[tuple[int, ...]]:
    """All points of PG(3,q) as normalized vectors of GF(q)^4."""
    return sorted(
        {_normalized(v, q) for v in itertools.product(range(q), repeat=4) if any(v)}
    )


class Pg3Oracle:
    """Incidence of PG(3,q) recomputed from the sidecar's line matrices."""

    def __init__(self, meta_path):
        meta = json.loads(Path(meta_path).read_text())
        q = meta["q"]
        self.q = q
        points = projective_points(q)
        index = {p: i for i, p in enumerate(points)}
        reps = meta["line_reps"]
        # Why the sidecar's lines are not the lines of PG(3,q), or None.
        self.sidecar_error = None
        # on_line[i, k]: point k lies on line i.
        on_line = np.zeros((len(reps), len(points)), dtype=np.int64)
        for i, (r1, r2) in enumerate(reps):
            span = {
                _normalized([(a * x + b * y) % q for x, y in zip(r1, r2)], q)
                for a in range(q)
                for b in range(q)
                if any((a * x + b * y) % q for x, y in zip(r1, r2))
            }
            if len(span) != q + 1:
                self.sidecar_error = self.sidecar_error or f"line {i} is not a projective line"
            for p in span:
                on_line[i, index[p]] = 1
        # Distinct lines, as many as PG(3,q) has, are all of its lines.
        if len({row.tobytes() for row in on_line}) != len(reps):
            self.sidecar_error = self.sidecar_error or "the sidecar lists a line twice"
        # in_plane[i, k]: line i lies in the plane with normal vector points[k].
        normals = np.array(points, dtype=np.int64)
        in_plane = np.ones((len(reps), len(points)), dtype=bool)
        for i, rows in enumerate(reps):
            for row in rows:
                in_plane[i] &= (normals @ np.array(row, dtype=np.int64)) % q == 0
        self.line_count = len(reps)
        self.meets = (on_line @ on_line.T) > 0
        self.stars = frozenset(frozenset(np.flatnonzero(col).tolist()) for col in on_line.T)
        self.pencils = frozenset(frozenset(np.flatnonzero(col).tolist()) for col in in_plane.T)

    @property
    def expected_lines(self) -> int:
        q = self.q
        return (q * q + 1) * (q * q + q + 1)

    @property
    def incident_pairs(self) -> list[tuple[int, int]]:
        upper = np.triu(self.meets, k=1)
        return [(int(a), int(b)) for a, b in zip(*np.nonzero(upper))]

    def structure_error(self, structure: dict):
        """None when a structure file holds exactly this PG(3,q), else why not."""
        if self.sidecar_error is not None:
            return self.sidecar_error
        n = len(structure.get("lines", []))
        if n != self.line_count or n != self.expected_lines:
            return f"{n} lines, expected {self.expected_lines}"
        skew = np.zeros((n, n), dtype=bool)
        pairs = np.array(structure.get("skew_pairs", []), dtype=np.int64).reshape(-1, 2)
        skew[pairs[:, 0], pairs[:, 1]] = True
        skew |= skew.T
        if not np.array_equal(~skew, self.meets):
            return "skew pairs disagree with the subspace oracle"
        return None

    def families_error(self, model: dict):
        """None when a model's two families are the stars and pencils in some order."""
        got = [frozenset(frozenset(e) for e in model.get(k, [])) for k in ("points", "planes")]
        if {got[0], got[1]} == {self.stars, self.pencils}:
            return None
        return "point/plane families differ from the PG(3,q) stars and pencils"
