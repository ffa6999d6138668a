"""Command-line front end.

Commands: twirl, convert, discriminate, curves, circuit, ozawa.
Exit codes: 0 success, 1 negative verdict (infeasible conversion), 2 input
error, 3 internal verification failure.  All output is deterministic: floats
are fixed to 12 significant digits and no randomness is used anywhere.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import serialize
from .circuits import (build_mle_unitary, build_repeatable_variant,
                       build_ud_unitary, model_manifest, simulate_measurement,
                       unitarity_deviation, verify_conservation, verify_yanase)
from .convert import (ChargeDistribution, charge_distribution,
                      deterministic_convertible, frameness_entropy,
                      variance_measure)
from .discrimination import Criterion
from .graded import EPS_NUM, NumericalError, Observable
from .models import (ModelReport, coherent_model, coherent_ud_success_smooth,
                     opt_phase_model, ozawa_bound, ozawa_reference_curve,
                     plus_minus_eigenstates, uniform_model)
from .serialize import fmt, matrix_to_json, round_sig

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3


class InputError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON file {path!r}: {exc}") from exc


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        _write(serialize.dumps(payload), args.out)
        return
    # csv fallback: flattened key,value rows (nested values as quoted JSON)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    flat = json.loads(serialize.dumps(payload))

    def walk(prefix, node):
        if isinstance(node, dict):
            for k in sorted(node):
                walk(f"{prefix}{k}." if prefix else f"{k}.", node[k])
        elif isinstance(node, list):
            writer.writerow([prefix[:-1], json.dumps(node, sort_keys=True)])
        else:
            writer.writerow([prefix[:-1], node])

    walk("", flat)
    _write(buf.getvalue(), args.out)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_twirl(args) -> int:
    obj = _load_json(args.state)
    try:
        state = serialize.state_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid state file: {exc}") from exc
    blocks = state.twirl()
    payload = {
        "twirled": serialize.block_state_to_json(blocks),
        "charge_distribution": serialize.distribution_to_json(
            charge_distribution(state).probs),
        "frameness_entropy_bits": round_sig(frameness_entropy(state)),
        "variance_measure": round_sig(variance_measure(state)),
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_convert(args) -> int:
    try:
        p = ChargeDistribution(serialize.distribution_from_json(_load_json(args.p)))
        q = ChargeDistribution(serialize.distribution_from_json(_load_json(args.q)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid distribution file: {exc}") from exc
    cert = deterministic_convertible(p, q)
    payload = {
        "feasible": cert.feasible,
        "residual": round_sig(cert.residual),
        "weights": ({str(k): round_sig(w) for k, w in cert.weights.items()}
                    if cert.feasible else None),
    }
    _emit(payload, args)
    return EXIT_OK if cert.feasible else EXIT_NEGATIVE


def _report_payload(report: ModelReport) -> dict:
    return {
        "criterion": report.criterion.value,
        "resource": report.resource,
        "param": round_sig(report.param),
        "mean_n": round_sig(report.mean_n),
        "success_numeric": round_sig(report.success_numeric),
        "success_closed_form": (round_sig(report.success_closed_form)
                                if report.success_closed_form is not None else None),
        "fail_numeric": (round_sig(report.fail_numeric)
                         if report.fail_numeric is not None else None),
        "asymptote": (round_sig(report.asymptote)
                      if report.asymptote is not None else None),
        "per_sector": [
            {"charge": c, "weight": round_sig(w), "success": round_sig(s)}
            for c, w, s in report.per_sector
        ],
    }


def cmd_discriminate(args) -> int:
    criterion = Criterion(args.criterion)
    if not math.isfinite(args.param):
        raise InputError(f"param must be finite, got {args.param}")
    if args.resource == "uniform":
        report = uniform_model(_as_int(args.param, "param"), criterion)
    elif args.resource == "coherent":
        if args.param <= 0:
            raise InputError("coherent resource needs param (alpha) > 0")
        report = coherent_model(args.param, criterion)
    elif args.resource == "opt_phase":
        if criterion is not Criterion.MLE:
            raise InputError("opt_phase resource supports only the mle criterion")
        report = opt_phase_model(_as_int(args.param, "param"))
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown resource {args.resource!r}")
    payload = _report_payload(report)
    if args.effects:
        payload["result"] = serialize.discrimination_result_to_json(report.result)
    _emit(payload, args)
    return EXIT_OK


def _as_int(x: float, name: str) -> int:
    if x != int(x) or x < 1:
        raise InputError(f"{name} must be a positive integer for this resource")
    return int(x)


def _parse_grid(spec: str) -> list[float]:
    try:
        grid = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad grid {spec!r}") from exc
    if not grid:
        raise InputError("empty grid")
    if not all(0 < g < math.inf for g in grid):  # also false for nan
        raise InputError(f"grid values must be positive and finite, got {spec!r}")
    return grid


def cmd_curves(args) -> int:
    grid = _parse_grid(args.grid)
    rows = [["resource", "param", "mean_N", "criterion",
             "success_numeric", "success_closed_form"]]
    if args.figure == "fig2":
        for mean_n in grid:
            rep = coherent_model(math.sqrt(mean_n), Criterion.UD)
            rows.append(["coherent", fmt(math.sqrt(mean_n)), fmt(mean_n), "ud",
                         fmt(rep.success_numeric),
                         fmt(coherent_ud_success_smooth(mean_n))])
        for mean_n in grid:
            ref = ozawa_reference_curve(mean_n)
            rows.append(["ozawa_reference", fmt(mean_n), fmt(mean_n), "ud",
                         fmt(ref), fmt(ref)])
    else:  # fig3
        for mean_n in grid:
            m = 2.0 * mean_n
            if m != int(m) or m < 1:
                raise InputError(
                    f"fig3 needs mean_N with 2*mean_N a positive integer, got {mean_n}")
            m = int(m)
            for rep in (coherent_model(math.sqrt(mean_n), Criterion.MLE),
                        uniform_model(m, Criterion.MLE),
                        opt_phase_model(m)):
                rows.append([rep.resource, fmt(rep.param), fmt(rep.mean_n), "mle",
                             fmt(rep.success_numeric), fmt(rep.success_closed_form)])
    if args.format == "json":
        header, *data = rows
        _write(serialize.dumps([dict(zip(header, r)) for r in data]), args.out)
    else:
        _write("\n".join(",".join(r) for r in rows) + "\n", args.out)
    return EXIT_OK


_E_PLUS, _E_MINUS = plus_minus_eigenstates()
_QUBIT_PRESETS = {
    "e+": _E_PLUS,
    "e-": _E_MINUS,
    "0": np.array([1.0, 0.0]),
    "1": np.array([0.0, 1.0]),
}


def _qubit_state(spec) -> np.ndarray:
    """A qubit vector from a preset name, a qubit-state JSON file or its dict."""
    if not isinstance(spec, dict):
        spec = str(spec)
        if spec in _QUBIT_PRESETS:
            return _QUBIT_PRESETS[spec].astype(complex)
        spec = _load_json(spec)
    try:
        amps = np.array([complex(re, im) for re, im in spec["amplitudes"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid qubit state: {exc}") from exc
    if amps.shape != (2,) or not abs(np.linalg.norm(amps) - 1.0) <= 1e-6:  # nan too
        raise InputError("qubit state must be a normalized two-component vector")
    return amps / np.linalg.norm(amps)


_BUILDERS = {"ud": build_ud_unitary, "mle": build_mle_unitary,
             "repeatable": build_repeatable_variant}


def cmd_circuit(args) -> int:
    if args.m < 1:
        raise InputError("m must be >= 1")
    model = _BUILDERS[args.kind](args.m)
    if args.manifest:
        manifest = model_manifest(model)
        manifest["unitary"] = matrix_to_json(model.unitary.matrix)
        _write(serialize.dumps(manifest), args.out)
        return EXIT_OK
    vec = _qubit_state(args.input)
    rho_in = np.outer(vec, vec.conj())

    cons = verify_conservation(model.unitary)
    yanase = verify_yanase(model)
    unit = unitarity_deviation(model.unitary.matrix)
    outcomes = simulate_measurement(model, rho_in)
    table = {}
    for label in sorted(outcomes):
        prob, post = outcomes[label]
        entry = {"probability": round_sig(prob)}
        if post is not None:
            fid = float(np.real(vec.conj() @ post @ vec))
            entry["post_state_fidelity_to_input"] = round_sig(fid)
        table[label] = entry
    payload = {
        "kind": args.kind,
        "m": args.m,
        "input": args.input,
        "verification": {"conservation_norm": round_sig(cons),
                         "yanase_norm": round_sig(yanase),
                         "unitarity_deviation": round_sig(unit)},
        "outcomes": table,
    }
    _emit(payload, args)
    if max(cons, yanase, unit) > EPS_NUM:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_ozawa(args) -> int:
    obj = _load_json(args.scenario)
    if not isinstance(obj, dict):
        raise InputError(f"invalid scenario file: expected a JSON object, got {obj!r}")
    if "model" in obj:
        spec = obj["model"]
        try:
            kind, m = spec["kind"], int(spec["m"])
            builder = _BUILDERS[kind]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"invalid model spec: {exc}") from exc
        if m < 1:
            raise InputError("m must be >= 1")
        model = builder(m)
        vec = _qubit_state(obj.get("system_state", "e+"))
        rho = np.outer(vec, vec.conj())
        try:
            bound = model.noise_bound(rho)
        except ValueError:
            payload = {"bound": "undefined", "noise": None, "violation": None}
            _emit(payload, args)
            return EXIT_OK
        noise = model.noise(rho)
        violation = noise < bound - 1e-10
        payload = {"kind": kind, "m": m,
                   "bound": round_sig(bound), "noise": round_sig(noise),
                   "margin": round_sig(noise - bound),
                   "violation": bool(violation)}
        _emit(payload, args)
        return EXIT_VERIFY if violation else EXIT_OK

    # bound-only scenario: explicit spaces, observable and a product state
    try:
        sys_space = serialize.space_from_json(obj["system_space"])
        app_space = serialize.space_from_json(obj["apparatus_space"])
        l_mat = np.array([[complex(re, im) for re, im in row] for row in obj["L"]])
        sys_amp = np.array([complex(re, im) for re, im in obj["system_state"]])
        app_amp = np.array([complex(re, im) for re, im in obj["apparatus_state"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid scenario file: {exc}") from exc
    try:
        obs = Observable(sys_space, l_mat)
        with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
            joint = np.kron(np.outer(sys_amp, sys_amp.conj()),
                            np.outer(app_amp, app_amp.conj()))
        norm = np.trace(joint).real
        if not 0.0 < norm < math.inf:
            raise InputError(f"the product state's squared norm is {norm:g}; "
                             "it must be finite and nonzero")
        joint /= norm
        bound = ozawa_bound(obs, app_space, joint)
    except ValueError as exc:
        if "undefined" in str(exc):
            _emit({"bound": "undefined", "noise": None, "violation": None}, args)
            return EXIT_OK
        raise InputError(str(exc)) from exc
    _emit({"bound": round_sig(bound), "noise": None, "violation": None}, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waylab",
        description="Asymmetry-resource measurement models under a U(1) conservation law")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_format="json"):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=default_format)

    p = sub.add_parser("twirl", help="G-twirl a pure state and report measures")
    p.add_argument("state", help="pure-state JSON file")
    common(p)
    p.set_defaults(func=cmd_twirl)

    p = sub.add_parser("convert", help="deterministic convertibility of p to q")
    p.add_argument("p", help="source charge-distribution JSON file")
    p.add_argument("q", help="target charge-distribution JSON file")
    common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("discriminate", help="optimal readout for a resource model")
    p.add_argument("--resource", choices=("uniform", "coherent", "opt_phase"),
                   required=True)
    p.add_argument("--param", type=float, required=True,
                   help="ladder size M, or alpha for the coherent resource")
    p.add_argument("--criterion", choices=("ud", "mle"), required=True)
    p.add_argument("--effects", action="store_true",
                   help="include the global POVM effect matrices")
    common(p)
    p.set_defaults(func=cmd_discriminate)

    p = sub.add_parser("curves", help="success-probability curves over a mean-N grid")
    p.add_argument("--figure", choices=("fig2", "fig3"), required=True)
    p.add_argument("--grid", required=True, help="comma-separated mean-N values")
    common(p, default_format="csv")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("circuit", help="build, verify and simulate a readout circuit")
    p.add_argument("--kind", choices=tuple(_BUILDERS), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--input", default="e+",
                   help="system input: e+, e-, 0, 1 or a qubit-state JSON file")
    p.add_argument("--manifest", action="store_true",
                   help="emit the model manifest (spaces, init, pointer, unitary) "
                        "instead of simulating")
    common(p)
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("ozawa", help="noise lower bound vs simulated model noise")
    p.add_argument("scenario", help="scenario JSON file")
    common(p)
    p.set_defaults(func=cmd_ozawa)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
