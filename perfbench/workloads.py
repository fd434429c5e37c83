"""The benchmark's workloads: a bundled fixture, an entry point, p and prec.

The inputs are the fixtures shipped with the program; the run seed only
orders the samples (see run.py and worker.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str      # file under src/affine_chabauty/problems/
    mode: str         # 'solve' | 'verify'
    p: int
    prec: int
    why: str

    def problem_path(self, root: Path) -> Path:
        return root / "src" / "affine_chabauty" / "problems" / self.fixture


WORKLOADS = {w.name: w for w in (
    Workload("hyper-p23-solve", "hyperelliptic_6081b.json", "solve", 23, 12,
             "large p: Frobenius is ~77% of the solve, plus 240 dagger_eval "
             "calls and 100 disc loci"),
    Workload("super-p7-solve", "superelliptic_a1.json", "solve", 7, 12,
             "series and transport heavy: four Frobenius models, 65 "
             "disc_series rebuilds, 12 unresolved discs"),
    Workload("hyper-p7-verify", "hyperelliptic_6081b.json", "verify", 7, 12,
             "read-heavy: 382 pair lookups (14 computed), 120 determinants, "
             "167 selmer_target calls, no disc loci"),
)}
