"""Machine-readable results for identity checks and verification suites."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field


def tolerance_scale(value) -> float:
    """`value` as a tolerance scale.  Raises ValueError unless it is a finite
    positive number: an infinite scale would pass every check."""
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"tolerance scale must be finite and positive, got {value!r}")
    return float(value)


@dataclass
class CheckResult:
    """One verified identity: residual against a pinned tolerance."""

    name: str
    residual: float
    tolerance: float
    seconds: float = 0.0
    detail: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "passed": self.passed,
            "seconds": round(self.seconds, 4),
            "detail": self.detail,
        }

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: residual={self.residual:.3e} tol={self.tolerance:.1e}"


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False


@dataclass
class VerificationReport:
    """Aggregated suite results with the configuration that produced them."""

    suite: str
    seed: int
    tol_scale: float
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def extend(self, results):
        self.checks.extend(results)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "tol_scale": self.tol_scale,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]
