"""JSON schemas for states, block states, distributions and certificates.

Pure states:   {"charges": [...], "sector_dims": [...], "amplitudes": [[re, im], ...]}
Block states:  {"charges": [...], "sector_dims": [...], "blocks": {"n": [[[re, im], ...], ...]}}
Distributions: {"charge": probability, ...}  (string keys, JSON object)
Matrices are row-major; every float is rounded to 12 significant digits on
output so that identical inputs serialize byte-identically.
"""

from __future__ import annotations

import json

import numpy as np

from .graded import BlockDiagonal, GradedSpace, PureState, _require

SIG_DIGITS = 12


def round_sig(x: float) -> float:
    return float(f"{float(x):.{SIG_DIGITS}g}")


def fmt(x: float) -> str:
    return f"{float(x):.{SIG_DIGITS}g}"


def _round_optional(x: float | None) -> float | None:
    return round_sig(x) if x is not None else None


def _complex_pair(z: complex) -> list[float]:
    return [round_sig(z.real), round_sig(z.imag)]


def _complex_array(pairs, ndim: int) -> np.ndarray:
    """The ``ndim``-dimensional complex array whose entries are given as [re, im] number pairs."""
    arr = np.asarray(pairs)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2 or arr.dtype.kind not in "biuf":
        raise ValueError(f"expected [re, im] number pairs nested {ndim} deep")
    return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    return [[_complex_pair(z) for z in row] for row in np.asarray(m, dtype=complex)]


def space_to_json(space: GradedSpace) -> dict:
    return {"charges": list(space.charges), "sector_dims": list(space.dims)}


def space_from_json(obj) -> GradedSpace:
    return GradedSpace(obj["charges"], obj["sector_dims"])


def state_to_json(state: PureState) -> dict:
    out = space_to_json(state.space)
    out["amplitudes"] = [_complex_pair(z) for z in state.amplitudes]
    return out


def state_from_json(obj) -> PureState:
    space = space_from_json(obj)
    amps = _complex_array(obj["amplitudes"], 1)
    # normalize away the 12-digit serialization rounding, nothing more
    norm = np.linalg.norm(amps)
    _require(abs(norm - 1.0), 1e-6, "serialized state is not normalized")
    return PureState(space, amps / norm)


def block_state_to_json(bs: BlockDiagonal) -> dict:
    out = space_to_json(bs.space)
    out["blocks"] = {str(n): matrix_to_json(bs.block(n)) for n in bs.space.charges}
    return out


def distribution_to_json(probs: dict[int, float]) -> dict:
    return {str(n): round_sig(p) for n, p in sorted(probs.items())}


def distribution_from_json(obj) -> dict[int, float]:
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {obj!r}")
    return {int(n): float(p) for n, p in obj.items()}


def _per_sector_to_json(rows) -> list[dict]:
    """One {"charge", "weight", "success"} object per (charge, weight, success) row."""
    return [{"charge": charge, "weight": round_sig(weight), "success": round_sig(success)}
            for charge, weight, success in rows]


def discrimination_result_to_json(result) -> dict:
    """Per-sector breakdown of a discrimination run and its global POVM
    effects in the matrix schema."""
    return {
        "criterion": result.criterion.value,
        "success_prob": round_sig(result.success_prob),
        "fail_prob": _round_optional(result.fail_prob),
        "per_sector": _per_sector_to_json(result.per_sector),
        "space": space_to_json(result.space),
        "effects": {label: matrix_to_json(eff)
                    for label, eff in result.global_effects.items()},
    }


def dumps(obj) -> str:
    """Deterministic JSON encoding: sorted keys, fixed separators, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
