"""The per-backend linear cost model and its versioned JSON persistence.

Each backend's batch cost is modelled as::

    seconds(n_terms, selectivity) =
        setup + n_terms * (per_term + per_term_selectivity * selectivity)

Three constants per backend is deliberately crude — the model only has to
*rank* backends for a concrete ``(n_terms, selectivity)`` point, not
predict wall-clock, and the linear form is exactly what the measured grids
in ``bench_ablation.py`` / ``repro-rambo calibrate`` look like: a setup
intercept (snapshot lease, probe-matrix build, Python dispatch), a
per-term slope (hash + gather per term), and a selectivity-scaled slope
(survivor handling — candidate extraction in the sparse path, result
materialisation everywhere).

Constants come from one of three places, in increasing order of trust:

1. ``cost_hints()`` defaults shipped by each :class:`MembershipIndex`
   subclass (order-of-magnitude priors, good enough to avoid the scalar
   reference path);
2. a least-squares :meth:`CostModel.fit` over micro-measurements taken by
   ``repro-rambo calibrate`` against the actual artifact on the actual
   machine;
3. :meth:`CostModel.fit_from_grid` over the machine-readable timing grid
   that ``bench_ablation.py`` appends to the ``REPRO_BENCH_JSON`` side
   channel — the same measurements the ablation study reports.

A fitted model is persisted as versioned JSON next to the index artifact
(``<index>.cost.json``) by :meth:`CostModel.save_for` and read back by
:meth:`CostModel.load_for`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

PathLike = Union[str, Path]

#: Version stamp written into (and required from) every cost-model file.
COST_MODEL_FORMAT_VERSION = 1

#: Suffix appended to the index artifact's path to name its cost model.
COST_MODEL_SUFFIX = ".cost.json"

#: Coefficient names, in feature order ``[1, n, n * selectivity]``.
COEFFICIENT_NAMES = ("setup", "per_term", "per_term_selectivity")

#: One calibration observation: (backend, n_terms, selectivity, seconds).
Sample = Tuple[str, int, float, float]


def cost_model_path(index_path: PathLike) -> Path:
    """The cost-model file that belongs to the index artifact at *index_path*."""
    return Path(str(index_path) + COST_MODEL_SUFFIX)


def _clean_coefficients(coefficients: Mapping[str, object]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name in COEFFICIENT_NAMES:
        value = float(coefficients.get(name, 0.0))
        if not np.isfinite(value):
            raise ValueError(f"cost coefficient {name!r} must be finite, got {value!r}")
        out[name] = value
    return out


class CostModel:
    """Per-backend linear cost constants with fit / estimate / persist."""

    def __init__(
        self, backends: Optional[Mapping[str, Mapping[str, object]]] = None
    ) -> None:
        self._backends: Dict[str, Dict[str, float]] = {}
        if backends:
            for name, coefficients in backends.items():
                self.set_backend(name, coefficients)

    def set_backend(self, name: str, coefficients: Mapping[str, object]) -> None:
        """Record the constants of backend *name* (missing ones default to 0)."""
        if not name:
            raise ValueError("backend name must be non-empty")
        self._backends[str(name)] = _clean_coefficients(coefficients)

    def coefficients(self, name: str) -> Optional[Dict[str, float]]:
        """The constants of backend *name*, or ``None`` when uncalibrated."""
        found = self._backends.get(name)
        return dict(found) if found is not None else None

    @property
    def backend_names(self) -> List[str]:
        return sorted(self._backends)

    def __contains__(self, name: str) -> bool:
        return name in self._backends

    def __len__(self) -> int:
        return len(self._backends)

    def estimate(self, name: str, n_terms: int, selectivity: float) -> float:
        """Predicted batch seconds for backend *name* at a workload point.

        Estimates are floored at a tiny positive epsilon so a sloppy fit
        (negative intercept from noise) can never produce a negative cost
        that would dominate every comparison.
        """
        coefficients = self._backends.get(name)
        if coefficients is None:
            raise KeyError(f"no cost constants for backend {name!r}")
        n = max(int(n_terms), 0)
        sel = min(max(float(selectivity), 0.0), 1.0)
        estimate = coefficients["setup"] + n * (
            coefficients["per_term"] + coefficients["per_term_selectivity"] * sel
        )
        return max(estimate, 1e-12)

    def merged_with(self, defaults: "CostModel") -> "CostModel":
        """A new model using *defaults* for backends this model lacks."""
        merged = CostModel(defaults._backends)
        for name, coefficients in self._backends.items():
            merged.set_backend(name, coefficients)
        return merged

    # -- fitting ------------------------------------------------------------------------

    def fit(self, samples: Iterable[Sample]) -> List[str]:
        """Least-squares fit of the constants from raw observations.

        *samples* are ``(backend, n_terms, selectivity, seconds)`` tuples;
        each backend is fit independently over the feature matrix
        ``[1, n, n * selectivity]``.  Rank-deficient designs (e.g. all
        samples at selectivity 0) are handled by ``lstsq``'s minimum-norm
        solution — the unconstrained coefficient simply stays 0.  Negative
        slopes are clamped to 0 (noise, not physics).  Returns the backend
        names that were (re)fit.
        """
        grouped: Dict[str, List[Tuple[int, float, float]]] = {}
        for backend, n_terms, selectivity, seconds in samples:
            grouped.setdefault(str(backend), []).append(
                (int(n_terms), float(selectivity), float(seconds))
            )
        fitted: List[str] = []
        for backend, points in grouped.items():
            design = np.array(
                [[1.0, n, n * sel] for n, sel, _ in points], dtype=np.float64
            )
            observed = np.array([seconds for _, _, seconds in points], dtype=np.float64)
            solution, *_ = np.linalg.lstsq(design, observed, rcond=None)
            coefficients = {
                name: max(float(value), 0.0)
                for name, value in zip(COEFFICIENT_NAMES, solution)
            }
            self.set_backend(backend, coefficients)
            fitted.append(backend)
        return sorted(fitted)

    def fit_from_grid(self, payload: Iterable[Mapping]) -> List[str]:
        """Fit from the ``REPRO_BENCH_JSON`` tables that carry a timing grid.

        *payload* is the parsed JSONL stream that ``print_table`` appends —
        ``{"title": ..., "rows": {name: {column: value}}}`` objects.  Grid
        rows are recognised by carrying the three columns ``terms``,
        ``selectivity`` and ``seconds``; the backend name is the row name up
        to the first ``"@"`` (rows are named ``<backend>@n=<n>,sel=<s>``).
        Tables without grid-shaped rows are ignored, so the whole bench-run
        stream can be piped in unfiltered.  Returns the backends fit.
        """
        samples: List[Sample] = []
        for table in payload:
            rows = table.get("rows")
            if not isinstance(rows, Mapping):
                continue
            for row_name, columns in rows.items():
                if not isinstance(columns, Mapping):
                    continue
                if not {"terms", "selectivity", "seconds"} <= set(columns):
                    continue
                backend = str(row_name).split("@", 1)[0]
                samples.append(
                    (
                        backend,
                        int(columns["terms"]),
                        float(columns["selectivity"]),
                        float(columns["seconds"]),
                    )
                )
        if not samples:
            raise ValueError(
                "no timing-grid rows found (expected rows with 'terms', "
                "'selectivity' and 'seconds' columns, as emitted by "
                "bench_ablation.py's backend timing grid)"
            )
        return self.fit(samples)

    # -- persistence --------------------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "format_version": COST_MODEL_FORMAT_VERSION,
            "backends": {
                name: dict(coefficients)
                for name, coefficients in sorted(self._backends.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CostModel":
        version = payload.get("format_version")
        if version != COST_MODEL_FORMAT_VERSION:
            raise ValueError(
                f"unsupported cost model version {version!r} "
                f"(this reader understands version {COST_MODEL_FORMAT_VERSION})"
            )
        backends = payload.get("backends")
        if not isinstance(backends, Mapping):
            raise ValueError("cost model is missing the 'backends' mapping")
        return cls(backends)

    def save(self, path: PathLike) -> int:
        """Write the model JSON to *path*; returns the bytes written."""
        data = json.dumps(self.to_dict(), indent=2) + "\n"
        path = Path(path)
        path.write_text(data, encoding="utf-8")
        return len(data.encode("utf-8"))

    @classmethod
    def load(cls, path: PathLike) -> "CostModel":
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not a valid cost model: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError(f"{path} is not a valid cost model (not an object)")
        return cls.from_dict(payload)

    def save_for(self, index_path: PathLike) -> Path:
        """Write the model next to the index artifact; returns its path."""
        target = cost_model_path(index_path)
        self.save(target)
        return target

    @classmethod
    def load_for(cls, index_path: PathLike) -> Optional["CostModel"]:
        """The calibrated model of the index at *index_path*, or ``None``."""
        target = cost_model_path(index_path)
        if not target.exists():
            return None
        return cls.load(target)

    def __repr__(self) -> str:
        return f"CostModel(backends={self.backend_names})"


def measure_samples(
    runners: Mapping[str, Callable[[Sequence], object]],
    term_pools: Mapping[float, Sequence],
    sizes: Sequence[int],
    *,
    repeats: int = 3,
    clock: Callable[[], float] = time.perf_counter,
) -> List[Sample]:
    """Micro-measure each runner over a batch-size × selectivity grid.

    *runners* maps backend name to a callable executing one batch of terms;
    *term_pools* maps a nominal selectivity label to a pool of terms of
    roughly that selectivity.  For each (backend, size, selectivity) cell
    the batch is run ``repeats`` times and the **minimum** wall time kept —
    the standard micro-benchmark noise floor.  One warm-up run per backend
    keeps cold-start costs (mmap page-in, lazy probe matrices) out of the
    fit.  Returns samples ready for :meth:`CostModel.fit`.
    """
    samples: List[Sample] = []
    for backend, run in runners.items():
        warmed = False
        for selectivity, pool in term_pools.items():
            pool = list(pool)
            if not pool:
                continue
            for size in sizes:
                if size <= 0:
                    continue
                batch = [pool[i % len(pool)] for i in range(size)]
                if not warmed:
                    run(batch)
                    warmed = True
                best = min(
                    _timed(run, batch, clock) for _ in range(max(int(repeats), 1))
                )
                samples.append((backend, size, float(selectivity), best))
    return samples


def _timed(run: Callable[[Sequence], object], batch: Sequence, clock) -> float:
    start = clock()
    run(batch)
    return clock() - start
