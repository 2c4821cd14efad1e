"""Batch command line front end.

Loads a JSON model file of named spaces, metrics, measures, functions,
kernels and relations, dispatches one subcommand, and prints a
deterministic report (text, or JSON under --json).  Exit codes: 0 success,
1 domain error (with the machine-readable error code), 2 input or parse
error.
"""

import argparse
import json
import sys
from fractions import Fraction

from .errors import FinmeasError, NotBisimilar
from .integrate import (
    INF,
    StepFunction,
    check_hoelder,
    check_minkowski,
    conv_in_measure_distance,
    integral,
    layered_integral,
    lp_norm,
    lp_norm_squared,
)
from .kernels import (
    Kernel,
    convolve,
    disintegrate,
    fubini,
    kleisli_lift,
    path_measure,
    product_measure,
)
from .logic_bisim import (
    find_quotient_iso,
    logical_equivalence,
    mediate,
    parse_formula,
    quotient_kernel,
    validity_set,
)
from .measures import (
    LinearFunctional,
    Measure,
    SignedMeasure,
    jordan_decompose,
    lebesgue_decompose,
    lp_dual_density,
    measure_from_functional,
    radon_nikodym,
)
from .metrics import (
    FiniteMetric,
    check_weak_limit,
    hutchinson_distance,
    prohorov_distance,
)
from .rational import as_fraction, format_float, format_fraction
from .spaces import FiniteMeasurableSpace, MeasurableSet, product_space, sigma_from_generator


class ModelError(ValueError):
    """Raised for any malformed or unresolved model-file content."""


_SECTIONS = ("spaces", "metrics", "measures", "functions", "kernels", "relations")


class Model:
    """Named collections loaded from one model file."""

    def __init__(self):
        self.spaces = {}
        self.space_origin = {}
        self.metrics = {}
        self.measures = {}
        self.functions = {}
        self.kernels = {}
        self.relations = {}

    def _get(self, collection, kind, name):
        try:
            return collection[name]
        except KeyError:
            raise ModelError(f"unknown {kind} {name!r}") from None

    def space(self, name):
        return self._get(self.spaces, "space", name)

    def metric(self, name):
        return self._get(self.metrics, "metric", name)

    def measure(self, name, nonneg=False):
        found = self._get(self.measures, "measure", name)[1]
        if nonneg and not isinstance(found, Measure):
            raise ModelError(
                f"measure {name!r} is signed; this command needs nonnegative weights"
            )
        return found

    def function(self, name):
        return self._get(self.functions, "function", name)[1]

    def kernel(self, name):
        return self._get(self.kernels, "kernel", name)[2]


def _rational(value, context):
    try:
        return as_fraction(value)
    except (ValueError, TypeError) as err:
        raise ModelError(f"{context}: {err}") from None


def _require_dict(entry, context):
    if not isinstance(entry, dict):
        raise ModelError(f"{context} must be a JSON object")
    return entry


def _strings(value, context):
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ModelError(f"{context} must be a list of strings")
    return value


def _atom_weights(space, mapping, context):
    """Resolve a point-keyed weight mapping to one value per atom."""
    weights = [Fraction(0)] * len(space.atoms)
    seen = {}
    for point, value in mapping.items():
        try:
            k = space.atom_index_of_point(point)
        except ValueError:
            raise ModelError(f"{context}: unknown point {point!r}") from None
        if k in seen:
            raise ModelError(
                f"{context}: points {seen[k]!r} and {point!r} hit the same atom"
            )
        seen[k] = point
        weights[k] = _rational(value, f"{context}[{point!r}]")
    return weights


def parse_model(doc):
    """Validate a decoded model document and build the live objects."""
    _require_dict(doc, "model")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ModelError(f"unknown model sections: {sorted(unknown)}")
    for section in _SECTIONS:
        _require_dict(doc.get(section, {}), f"section {section!r}")
    model = Model()

    pending_products = {}
    for name, entry in sorted(doc.get("spaces", {}).items()):
        _require_dict(entry, f"space {name!r}")
        if "product" in entry:
            refs = entry["product"]
            if not (isinstance(refs, list) and len(refs) == 2):
                raise ModelError(f"space {name!r}: product needs two references")
            pending_products[name] = tuple(refs)
            continue
        if "points" not in entry:
            raise ModelError(f"space {name!r} needs points")
        try:
            points = _strings(entry["points"], "points")
            if "atoms" in entry:
                atoms = [_strings(a, "atom") for a in entry["atoms"]]
                space = FiniteMeasurableSpace(points, atoms)
            elif "generator" in entry:
                generator = [_strings(g, "generator set") for g in entry["generator"]]
                space = sigma_from_generator(points, [frozenset(g) for g in generator])
            else:
                space = FiniteMeasurableSpace.discrete(points)
        except (FinmeasError, ValueError, TypeError) as err:
            raise ModelError(f"space {name!r}: {err}") from None
        model.spaces[name] = space
        model.space_origin[name] = "explicit"

    for name, entry in sorted(doc.get("metrics", {}).items()):
        _require_dict(entry, f"metric {name!r}")
        if name in model.spaces or name in pending_products:
            raise ModelError(f"metric {name!r} collides with a space name")
        try:
            metric = FiniteMetric.from_points(
                _strings(entry["points"], "points"),
                [
                    [_rational(v, f"metric {name!r}") for v in row]
                    for row in entry["dist"]
                ],
            )
        except (FinmeasError, ValueError, TypeError, KeyError) as err:
            raise ModelError(f"metric {name!r}: {err}") from None
        model.metrics[name] = metric
        model.spaces[name] = metric.space
        model.space_origin[name] = "metric"

    while pending_products:
        progressed = False
        for name, (left, right) in sorted(pending_products.items()):
            if left in model.spaces and right in model.spaces:
                model.spaces[name] = product_space(
                    model.spaces[left], model.spaces[right]
                )
                model.space_origin[name] = ("product", left, right)
                del pending_products[name]
                progressed = True
        if not progressed:
            raise ModelError(
                f"unresolved product spaces: {sorted(pending_products)}"
            )

    for name, entry in sorted(doc.get("measures", {}).items()):
        _require_dict(entry, f"measure {name!r}")
        space_name = entry.get("space")
        space = model.space(space_name)
        weights = _atom_weights(
            space, _require_dict(entry.get("weights", {}), "weights"),
            f"measure {name!r}",
        )
        cls = Measure if all(w >= 0 for w in weights) else SignedMeasure
        model.measures[name] = (space_name, cls(space, weights))

    for name, entry in sorted(doc.get("functions", {}).items()):
        _require_dict(entry, f"function {name!r}")
        space_name = entry.get("space")
        space = model.space(space_name)
        values = _atom_weights(
            space, _require_dict(entry.get("values", {}), "values"),
            f"function {name!r}",
        )
        model.functions[name] = (space_name, StepFunction(space, values))

    for name, entry in sorted(doc.get("kernels", {}).items()):
        _require_dict(entry, f"kernel {name!r}")
        dom_name = entry.get("domain")
        cod_name = entry.get("codomain")
        domain = model.space(dom_name)
        codomain = model.space(cod_name)
        rows_doc = _require_dict(entry.get("rows", {}), f"kernel {name!r} rows")
        row_by_atom = {}
        for point, row in rows_doc.items():
            try:
                k = domain.atom_index_of_point(point)
            except ValueError:
                raise ModelError(
                    f"kernel {name!r}: unknown row point {point!r}"
                ) from None
            if k in row_by_atom:
                raise ModelError(f"kernel {name!r}: duplicate row for an atom")
            row_by_atom[k] = _atom_weights(
                codomain, _require_dict(row, "row"), f"kernel {name!r}[{point!r}]"
            )
        if len(row_by_atom) != len(domain.atoms):
            raise ModelError(f"kernel {name!r}: needs one row per domain atom")
        try:
            kernel = Kernel(
                domain,
                codomain,
                [Measure(codomain, row_by_atom[k]) for k in range(len(domain.atoms))],
                entry.get("kind"),
            )
        except (FinmeasError, ValueError) as err:
            raise ModelError(f"kernel {name!r}: {err}") from None
        model.kernels[name] = (dom_name, cod_name, kernel)

    for name, entry in sorted(doc.get("relations", {}).items()):
        _require_dict(entry, f"relation {name!r}")
        left_name = entry.get("left")
        right_name = entry.get("right")
        left = model.space(left_name)
        right = model.space(right_name)
        pairs = set()
        for pair in entry.get("pairs", []):
            if len(_strings(pair, f"relation {name!r}: pair")) != 2:
                raise ModelError(f"relation {name!r}: pairs must be 2-lists")
            p, q = pair
            try:
                pairs.add((left.point_index(p), right.point_index(q)))
            except ValueError:
                raise ModelError(
                    f"relation {name!r}: unknown pair point in {pair!r}"
                ) from None
        canonical = tuple(
            (left.points[i], right.points[j]) for i, j in sorted(pairs)
        )
        model.relations[name] = (left_name, right_name, canonical)
    return model


def load_model(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            raise ModelError(f"invalid JSON in {path}: {err}") from None
    return parse_model(doc)


def serialize_model(model):
    """The canonical document: explicit atoms, all weights listed, sorted names."""
    doc = {section: {} for section in _SECTIONS}
    for name in sorted(model.spaces):
        origin = model.space_origin[name]
        if origin == "metric":
            continue
        space = model.spaces[name]
        if isinstance(origin, tuple):
            doc["spaces"][name] = {"product": [origin[1], origin[2]]}
        else:
            doc["spaces"][name] = {
                "points": list(space.points),
                "atoms": [list(atom) for atom in space.atoms],
            }
    for name in sorted(model.metrics):
        metric = model.metrics[name]
        doc["metrics"][name] = {
            "points": list(metric.space.points),
            "dist": [[format_fraction(v) for v in row] for row in metric.dist],
        }
    for name in sorted(model.measures):
        space_name, measure = model.measures[name]
        doc["measures"][name] = {
            "space": space_name,
            "weights": {
                atom[0]: format_fraction(w)
                for atom, w in zip(measure.space.atoms, measure.weights)
            },
        }
    for name in sorted(model.functions):
        space_name, f = model.functions[name]
        doc["functions"][name] = {
            "space": space_name,
            "values": {
                atom[0]: format_fraction(v)
                for atom, v in zip(f.space.atoms, f.values)
            },
        }
    for name in sorted(model.kernels):
        dom_name, cod_name, kernel = model.kernels[name]
        doc["kernels"][name] = {
            "domain": dom_name,
            "codomain": cod_name,
            "kind": kernel.kind,
            "rows": {
                atom[0]: {
                    catom[0]: format_fraction(w)
                    for catom, w in zip(kernel.codomain.atoms, row.weights)
                }
                for atom, row in zip(kernel.domain.atoms, kernel.rows)
            },
        }
    for name in sorted(model.relations):
        left_name, right_name, pairs = model.relations[name]
        doc["relations"][name] = {
            "left": left_name,
            "right": right_name,
            "pairs": [[p, q] for p, q in pairs],
        }
    return {section: doc[section] for section in _SECTIONS if doc[section]}


def _atom_label(atom):
    return "{" + ",".join(atom) + "}"


def _num(value, args):
    """One numeric value as (json form, text form) under the output mode."""
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        if args.float_mode:
            text = format_float(float(value))
            return float(text), text
        text = format_fraction(value)
        return text, text
    text = format_float(float(value))
    return float(text), text


def _weights_report(space, weights, args):
    items = []
    lines = []
    for atom, w in zip(space.atoms, weights):
        value, text = _num(w, args)
        items.append({"atom": list(atom), "value": value})
        lines.append(f"  {_atom_label(atom)}: {text}")
    return items, lines


def _parse_exponent(text):
    if text in ("inf", "infinity", "oo"):
        return INF
    try:
        return as_fraction(text)
    except (ValueError, TypeError) as err:
        raise ModelError(f"bad exponent {text!r}: {err}") from None


def _parse_point_set(space, text):
    points = [p for p in text.split(",") if p] if text else []
    for p in points:
        try:
            space.point_index(p)
        except ValueError:
            raise ModelError(f"unknown point {p!r}") from None
    return MeasurableSet(space, points)


# ---------------------------------------------------------------- handlers


def _cmd_space(args, model):
    space = model.space(args.name)
    payload = {
        "command": "space",
        "name": args.name,
        "points": list(space.points),
        "atoms": [list(atom) for atom in space.atoms],
    }
    lines = [
        f"space {args.name}: {len(space.points)} points, {len(space.atoms)} atoms",
        "  points: " + ", ".join(space.points),
        "  atoms: " + ", ".join(_atom_label(a) for a in space.atoms),
    ]
    return payload, lines


def _cmd_measure_eval(args, model):
    measure = model.measure(args.measure)
    subset = _parse_point_set(measure.space, args.set)
    value, text = _num(measure.eval(subset), args)
    label = "{" + ",".join(subset.sorted_points()) + "}"
    payload = {
        "command": "measure eval",
        "measure": args.measure,
        "set": subset.sorted_points(),
        "value": value,
    }
    return payload, [f"{args.measure}({label}) = {text}"]


def _cmd_decompose_jordan(args, model):
    measure = model.measure(args.measure)
    plus, minus, variation = jordan_decompose(measure)
    payload = {"command": "decompose jordan", "measure": args.measure}
    lines = []
    for key, part in (("plus", plus), ("minus", minus), ("variation", variation)):
        items, part_lines = _weights_report(part.space, part.weights, args)
        payload[key] = items
        lines.append(f"{key}:")
        lines.extend(part_lines)
    total, total_text = _num(variation.total(), args)
    payload["total_variation"] = total
    lines.append(f"total variation = {total_text}")
    return payload, lines


def _cmd_decompose_lebesgue(args, model):
    mu = model.measure(args.num, nonneg=True)
    nu = model.measure(args.den, nonneg=True)
    absolutely, singular, density = lebesgue_decompose(mu, nu)
    payload = {"command": "decompose lebesgue", "num": args.num, "den": args.den}
    lines = []
    for key, space, values in (
        ("absolutely_continuous", absolutely.space, absolutely.weights),
        ("singular", singular.space, singular.weights),
        ("density", density.space, density.values),
    ):
        items, part_lines = _weights_report(space, values, args)
        payload[key] = items
        lines.append(key.replace("_", " ") + ":")
        lines.extend(part_lines)
    return payload, lines


def _cmd_rn(args, model):
    mu = model.measure(args.num, nonneg=True)
    nu = model.measure(args.den, nonneg=True)
    density = radon_nikodym(mu, nu)
    items, lines = _weights_report(density.space, density.values, args)
    payload = {
        "command": "rn",
        "num": args.num,
        "den": args.den,
        "density": items,
    }
    return payload, [f"d{args.num}/d{args.den}:"] + lines


def _cmd_integrate(args, model):
    f = model.function(args.function)
    mu = model.measure(args.measure, nonneg=True)
    result = layered_integral(f, mu) if args.layered else integral(f, mu)
    value, text = _num(result, args)
    how = "layered integral" if args.layered else "integral"
    payload = {
        "command": "integrate",
        "function": args.function,
        "measure": args.measure,
        "layered": bool(args.layered),
        "value": value,
    }
    return payload, [f"{how} {args.function} d{args.measure} = {text}"]


def _cmd_lp_norm(args, model):
    f = model.function(args.function)
    mu = model.measure(args.measure, nonneg=True)
    p = _parse_exponent(args.p)
    norm = lp_norm(f, mu, p)
    payload = {
        "command": "lp-norm",
        "function": args.function,
        "measure": args.measure,
        "p": "inf" if p == INF else format_fraction(p),
    }
    value, text = _num(norm, args)
    payload["value"] = value
    lines = [f"lp-norm p={payload['p']}: {text}"]
    if p == 2 and not args.float_mode:
        squared, squared_text = _num(lp_norm_squared(f, mu), args)
        payload["squared"] = squared
        lines.append(f"  exact squared norm = {squared_text}")
    return payload, lines


def _ineq_common(args, model, checker, label):
    f = model.function(args.left)
    g = model.function(args.right)
    mu = model.measure(args.measure, nonneg=True)
    p = _parse_exponent(args.p)
    lhs, rhs, holds = checker(f, g, mu, p)
    lhs_value, lhs_text = _num(lhs, args)
    rhs_value, rhs_text = _num(rhs, args)
    payload = {
        "command": f"ineq {label}",
        "left": args.left,
        "right": args.right,
        "measure": args.measure,
        "p": "inf" if p == INF else format_fraction(p),
        "lhs": lhs_value,
        "rhs": rhs_value,
        "holds": bool(holds),
    }
    lines = [
        f"{label} p={payload['p']}: lhs = {lhs_text}, rhs = {rhs_text}, "
        f"holds = {str(bool(holds)).lower()}"
    ]
    return payload, lines


def _cmd_ineq_hoelder(args, model):
    return _ineq_common(args, model, check_hoelder, "hoelder")


def _cmd_ineq_minkowski(args, model):
    return _ineq_common(args, model, check_minkowski, "minkowski")


def _cmd_delta(args, model):
    f = model.function(args.left)
    g = model.function(args.right)
    mu = model.measure(args.measure, nonneg=True)
    value, text = _num(conv_in_measure_distance(f, g, mu), args)
    payload = {
        "command": "delta",
        "left": args.left,
        "right": args.right,
        "measure": args.measure,
        "value": value,
    }
    return payload, [f"delta({args.left}, {args.right}) = {text}"]


def _cmd_product(args, model):
    mu = model.measure(args.left, nonneg=True)
    nu = model.measure(args.right, nonneg=True)
    product = product_measure(mu, nu)
    items, lines = _weights_report(product.space, product.weights, args)
    payload = {
        "command": "product",
        "left": args.left,
        "right": args.right,
        "weights": items,
    }
    return payload, [f"product measure {args.left} x {args.right}:"] + lines


def _cmd_fubini(args, model):
    f = model.function(args.function)
    mu = model.measure(args.left, nonneg=True)
    nu = model.measure(args.right, nonneg=True)
    direct, iterated_xy, iterated_yx = fubini(f, mu, nu)
    payload = {"command": "fubini", "function": args.function}
    lines = []
    for key, value in (
        ("direct", direct),
        ("iterated_xy", iterated_xy),
        ("iterated_yx", iterated_yx),
    ):
        jvalue, text = _num(value, args)
        payload[key] = jvalue
        lines.append(f"{key.replace('_', ' ')} = {text}")
    agree = direct == iterated_xy == iterated_yx
    payload["agree"] = agree
    lines.append(f"agree = {str(agree).lower()}")
    return payload, lines


def _kernel_report(kernel, args):
    items = []
    lines = [
        "  columns: " + ", ".join(_atom_label(a) for a in kernel.codomain.atoms)
    ]
    for atom, row in zip(kernel.domain.atoms, kernel.rows):
        values = []
        texts = []
        for w in row.weights:
            value, text = _num(w, args)
            values.append(value)
            texts.append(text)
        items.append({"atom": list(atom), "weights": values})
        lines.append(f"  row {_atom_label(atom)}: [" + ", ".join(texts) + "]")
    return items, lines


def _cmd_kernel_compose(args, model):
    left = model.kernel(args.left)
    right = model.kernel(args.right)
    result = convolve(left, right)
    items, lines = _kernel_report(result, args)
    payload = {
        "command": "kernel compose",
        "left": args.left,
        "right": args.right,
        "kind": result.kind,
        "rows": items,
    }
    header = f"{args.left} * {args.right} (kind {result.kind}):"
    return payload, [header] + lines


def _cmd_kernel_lift(args, model):
    kernel = model.kernel(args.kernel)
    mu = model.measure(args.measure, nonneg=True)
    lifted = kleisli_lift(kernel, mu)
    items, lines = _weights_report(lifted.space, lifted.weights, args)
    payload = {
        "command": "kernel lift",
        "kernel": args.kernel,
        "measure": args.measure,
        "weights": items,
    }
    return payload, [f"lift of {args.measure} through {args.kernel}:"] + lines


def _cmd_kernel_path(args, model):
    kernel = model.kernel(args.kernel)
    result = path_measure(kernel, args.start, args.horizon)
    items, lines = _weights_report(result.space, result.weights, args)
    total, total_text = _num(result.total(), args)
    payload = {
        "command": "kernel path",
        "kernel": args.kernel,
        "start": args.start,
        "horizon": args.horizon,
        "weights": items,
        "total": total,
    }
    header = f"path measure from {args.start}, horizon {args.horizon}:"
    return payload, [header] + lines + [f"total = {total_text}"]


def _cmd_disintegrate(args, model):
    joint = model.measure(args.measure, nonneg=True)
    marginal, conditional, null_fibers = disintegrate(joint)
    marginal_items, marginal_lines = _weights_report(
        marginal.space, marginal.weights, args
    )
    kernel_items, kernel_lines = _kernel_report(conditional, args)
    payload = {
        "command": "disintegrate",
        "measure": args.measure,
        "marginal": marginal_items,
        "kernel_kind": conditional.kind,
        "kernel": kernel_items,
        "null_fibers": [list(atom) for atom in null_fibers],
    }
    lines = ["marginal:"] + marginal_lines
    lines.append(f"conditional kernel (kind {conditional.kind}):")
    lines.extend(kernel_lines)
    fibers = ", ".join(_atom_label(a) for a in null_fibers) or "none"
    lines.append(f"null fibers: {fibers}")
    return payload, lines


def _cmd_dist_prohorov(args, model):
    metric = model.metric(args.metric)
    mu = model.measure(args.left, nonneg=True)
    nu = model.measure(args.right, nonneg=True)
    value, text = _num(prohorov_distance(mu, nu, metric), args)
    payload = {
        "command": "dist prohorov",
        "left": args.left,
        "right": args.right,
        "metric": args.metric,
        "value": value,
    }
    return payload, [text]


def _cmd_dist_hutchinson(args, model):
    metric = model.metric(args.metric)
    mu = model.measure(args.left, nonneg=True)
    nu = model.measure(args.right, nonneg=True)
    gamma = _rational(args.gamma, "--gamma")
    value, witness = hutchinson_distance(mu, nu, metric, gamma)
    jvalue, text = _num(value, args)
    witness_values = []
    witness_texts = []
    for v in witness.values:
        wv, wt = _num(v, args)
        witness_values.append(wv)
        witness_texts.append(wt)
    payload = {
        "command": "dist hutchinson",
        "left": args.left,
        "right": args.right,
        "metric": args.metric,
        "gamma": format_fraction(gamma),
        "value": jvalue,
        "witness": witness_values,
    }
    lines = [text, "witness: [" + ", ".join(witness_texts) + "]"]
    return payload, lines


def _cmd_weak_check(args, model):
    metric = model.metric(args.metric)
    names = [n for n in args.sequence.split(",") if n]
    sequence = [model.measure(n, nonneg=True) for n in names]
    limit = model.measure(args.limit, nonneg=True)
    report = check_weak_limit(sequence, limit, metric, args.tol)
    payload = {
        "command": "weak-check",
        "sequence": names,
        "limit": args.limit,
        "tol": args.tol,
        "converges": report.converges,
        "per_atom_ok": report.per_atom_ok,
        "portmanteau_ok": report.portmanteau_ok,
        "mass_ok": report.mass_ok,
        "criteria_agree": report.criteria_agree(),
        "per_atom_residual": float(format_float(report.per_atom_residual)),
        "portmanteau_excess": float(format_float(report.portmanteau_excess)),
        "mass_residual": float(format_float(report.mass_residual)),
        "witness_set": (
            report.witness_set.sorted_points() if report.witness_set else None
        ),
    }
    lines = [
        f"converges = {str(report.converges).lower()}",
        f"per-atom ok = {str(report.per_atom_ok).lower()} "
        f"(residual {format_float(report.per_atom_residual)})",
        f"portmanteau ok = {str(report.portmanteau_ok).lower()} "
        f"(excess {format_float(report.portmanteau_excess)})",
        f"mass ok = {str(report.mass_ok).lower()} "
        f"(residual {format_float(report.mass_residual)})",
        f"criteria agree = {str(report.criteria_agree()).lower()}",
    ]
    if report.witness_set is not None:
        lines.append(
            "witness set: {" + ",".join(report.witness_set.sorted_points()) + "}"
        )
    return payload, lines


def _cmd_logic_check(args, model):
    kernel = model.kernel(args.kernel)
    phi = parse_formula(args.formula)
    result = validity_set(kernel, phi)
    payload = {
        "command": "logic check",
        "kernel": args.kernel,
        "formula": repr(phi),
        "validity_set": result.sorted_points(),
    }
    label = "{" + ",".join(result.sorted_points()) + "}"
    return payload, [f"[[{phi!r}]] = {label}"]


def _cmd_logic_quotient(args, model):
    kernel = model.kernel(args.kernel)
    partition = logical_equivalence(kernel)
    quotient = quotient_kernel(kernel, partition)
    items, kernel_lines = _kernel_report(quotient, args)
    payload = {
        "command": "logic quotient",
        "kernel": args.kernel,
        "blocks": [list(b) for b in partition.blocks],
        "kind": quotient.kind,
        "rows": items,
    }
    lines = [
        "blocks: " + ", ".join(_atom_label(b) for b in partition.blocks),
        f"quotient kernel (kind {quotient.kind}):",
    ]
    return payload, lines + kernel_lines


def _cmd_bisim_mediate(args, model):
    k1 = model.kernel(args.left)
    k2 = model.kernel(args.right)
    if not (k1.is_endo() and k2.is_endo()):
        raise ModelError("bisim mediate works on endokernels")
    p1 = logical_equivalence(k1)
    p2 = logical_equivalence(k2)
    q1 = quotient_kernel(k1, p1)
    q2 = quotient_kernel(k2, p2)
    iso = find_quotient_iso(q1, q2)
    if iso is None:
        raise NotBisimilar("logical quotients are not isomorphic")
    result = mediate(k1, k2, p1, p2, iso)
    items, kernel_lines = _kernel_report(result.kernel, args)
    payload = {
        "command": "bisim mediate",
        "left": args.left,
        "right": args.right,
        "iso": {k: v for k, v in sorted(iso[0].items())},
        "a_atoms": [list(a) for a in result.kernel.domain.atoms],
        "b_atoms": [list(a) for a in result.kernel.codomain.atoms],
        "kind": result.kernel.kind,
        "rows": items,
        "common_events": (
            None
            if result.common_events_trivial
            else [
                result.common_events[0].sorted_points(),
                result.common_events[1].sorted_points(),
            ]
        ),
    }
    lines = [
        "bisimilar: yes",
        "iso: "
        + ", ".join(f"{k}->{v}" for k, v in sorted(iso[0].items())),
        f"mediating kernel (kind {result.kernel.kind}):",
    ]
    lines.extend(kernel_lines)
    if result.common_events_trivial:
        lines.append("common events: trivial")
    else:
        u1, u2 = result.common_events
        lines.append(
            "common events: {"
            + ",".join(u1.sorted_points())
            + "} ~ {"
            + ",".join(u2.sorted_points())
            + "}"
        )
    return payload, lines


def _cmd_functional_to_measure(args, model):
    f = model.function(args.functional)
    functional = LinearFunctional(f.space, f.values)
    measure = measure_from_functional(functional)
    items, lines = _weights_report(measure.space, measure.weights, args)
    total, total_text = _num(measure.total(), args)
    payload = {
        "command": "functional to-measure",
        "functional": args.functional,
        "weights": items,
        "total": total,
    }
    return payload, ["represented measure:"] + lines + [f"total = {total_text}"]


def _cmd_functional_dual(args, model):
    f = model.function(args.functional)
    mu = model.measure(args.measure, nonneg=True)
    functional = LinearFunctional(f.space, f.values)
    p = _parse_exponent(args.p)
    density, norm = lp_dual_density(functional, mu, p)
    items, lines = _weights_report(density.space, density.values, args)
    norm_value, norm_text = _num(norm, args)
    q = "inf" if p == 1 else ("1" if p == INF else format_fraction(p / (p - 1)))
    payload = {
        "command": "functional dual",
        "functional": args.functional,
        "measure": args.measure,
        "p": "inf" if p == INF else format_fraction(p),
        "q": q,
        "density": items,
        "norm": norm_value,
    }
    out = ["density g:"] + lines + [f"operator norm (q={q}) = {norm_text}"]
    if q == "2" and not args.float_mode:
        squared, squared_text = _num(lp_norm_squared(density, mu), args)
        payload["norm_squared"] = squared
        out.append(f"  exact squared norm = {squared_text}")
    return payload, out


# ----------------------------------------------------------------- parser


def _common_parent():
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("-m", "--model", required=True, help="model JSON file")
    parent.add_argument(
        "--json", action="store_true", help="emit a JSON report instead of text"
    )
    mode = parent.add_mutually_exclusive_group()
    mode.add_argument(
        "--exact",
        dest="float_mode",
        action="store_false",
        help="print exact rationals where available (default)",
    )
    mode.add_argument(
        "--float",
        dest="float_mode",
        action="store_true",
        help="print floats with 12 significant digits",
    )
    parent.set_defaults(float_mode=False)
    return parent


def build_parser():
    parent = _common_parent()
    parser = argparse.ArgumentParser(
        prog="finmeas",
        description="Exact measure theory on finite spaces, batch interface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("space", parents=[parent], help="describe a space")
    p.add_argument("--name", required=True)
    p.set_defaults(func=_cmd_space)

    measure = sub.add_parser("measure", help="measure operations")
    measure_sub = measure.add_subparsers(dest="subcommand", required=True)
    p = measure_sub.add_parser("eval", parents=[parent])
    p.add_argument("--measure", required=True)
    p.add_argument("--set", required=True, help="comma separated points")
    p.set_defaults(func=_cmd_measure_eval)

    decompose = sub.add_parser("decompose", help="measure decompositions")
    decompose_sub = decompose.add_subparsers(dest="subcommand", required=True)
    p = decompose_sub.add_parser("jordan", parents=[parent])
    p.add_argument("--measure", required=True)
    p.set_defaults(func=_cmd_decompose_jordan)
    p = decompose_sub.add_parser("lebesgue", parents=[parent])
    p.add_argument("--num", required=True)
    p.add_argument("--den", required=True)
    p.set_defaults(func=_cmd_decompose_lebesgue)

    p = sub.add_parser("rn", parents=[parent], help="Radon-Nikodym density")
    p.add_argument("--num", required=True)
    p.add_argument("--den", required=True)
    p.set_defaults(func=_cmd_rn)

    p = sub.add_parser("integrate", parents=[parent], help="integrate a step function")
    p.add_argument("--function", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--layered", action="store_true", help="use the layer-cake formula")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("lp-norm", parents=[parent], help="Lp norm")
    p.add_argument("--function", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--p", required=True)
    p.set_defaults(func=_cmd_lp_norm)

    ineq = sub.add_parser("ineq", help="integral inequalities")
    ineq_sub = ineq.add_subparsers(dest="subcommand", required=True)
    for label, handler in (
        ("hoelder", _cmd_ineq_hoelder),
        ("minkowski", _cmd_ineq_minkowski),
    ):
        p = ineq_sub.add_parser(label, parents=[parent])
        p.add_argument("--left", required=True)
        p.add_argument("--right", required=True)
        p.add_argument("--measure", required=True)
        p.add_argument("--p", required=True)
        p.set_defaults(func=handler)

    p = sub.add_parser("delta", parents=[parent], help="convergence-in-measure distance")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--measure", required=True)
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("product", parents=[parent], help="product measure")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("fubini", parents=[parent], help="direct vs iterated integrals")
    p.add_argument("--function", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=_cmd_fubini)

    kernel = sub.add_parser("kernel", help="kernel operations")
    kernel_sub = kernel.add_subparsers(dest="subcommand", required=True)
    p = kernel_sub.add_parser("compose", parents=[parent])
    p.add_argument("--left", required=True, help="applied second")
    p.add_argument("--right", required=True, help="applied first")
    p.set_defaults(func=_cmd_kernel_compose)
    p = kernel_sub.add_parser("lift", parents=[parent])
    p.add_argument("--kernel", required=True)
    p.add_argument("--measure", required=True)
    p.set_defaults(func=_cmd_kernel_lift)
    p = kernel_sub.add_parser("path", parents=[parent])
    p.add_argument("--kernel", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--horizon", required=True, type=int)
    p.set_defaults(func=_cmd_kernel_path)

    p = sub.add_parser("disintegrate", parents=[parent], help="joint to marginal and kernel")
    p.add_argument("--measure", required=True)
    p.set_defaults(func=_cmd_disintegrate)

    dist = sub.add_parser("dist", help="distances between measures")
    dist_sub = dist.add_subparsers(dest="subcommand", required=True)
    p = dist_sub.add_parser("prohorov", parents=[parent])
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--metric", required=True)
    p.set_defaults(func=_cmd_dist_prohorov)
    p = dist_sub.add_parser("hutchinson", parents=[parent])
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--gamma", required=True)
    p.set_defaults(func=_cmd_dist_hutchinson)

    p = sub.add_parser("weak-check", parents=[parent], help="weak-convergence report")
    p.add_argument("--sequence", required=True, help="comma separated measure names")
    p.add_argument("--limit", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--tol", required=True, type=float)
    p.set_defaults(func=_cmd_weak_check)

    logic = sub.add_parser("logic", help="modal logic")
    logic_sub = logic.add_subparsers(dest="subcommand", required=True)
    p = logic_sub.add_parser("check", parents=[parent])
    p.add_argument("--kernel", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(func=_cmd_logic_check)
    p = logic_sub.add_parser("quotient", parents=[parent])
    p.add_argument("--kernel", required=True)
    p.set_defaults(func=_cmd_logic_quotient)

    bisim = sub.add_parser("bisim", help="bisimilarity")
    bisim_sub = bisim.add_subparsers(dest="subcommand", required=True)
    p = bisim_sub.add_parser("mediate", parents=[parent])
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=_cmd_bisim_mediate)

    functional = sub.add_parser("functional", help="linear functionals")
    functional_sub = functional.add_subparsers(dest="subcommand", required=True)
    p = functional_sub.add_parser("to-measure", parents=[parent])
    p.add_argument("--functional", required=True, help="a functions entry")
    p.set_defaults(func=_cmd_functional_to_measure)
    p = functional_sub.add_parser("dual", parents=[parent])
    p.add_argument("--functional", required=True, help="a functions entry")
    p.add_argument("--measure", required=True)
    p.add_argument("--p", required=True)
    p.set_defaults(func=_cmd_functional_dual)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        model = load_model(args.model)
    except (ModelError, OSError) as err:
        print(f"error[input]: {err}", file=sys.stderr)
        return 2
    try:
        payload, lines = args.func(args, model)
    except FinmeasError as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return 1
    except (ModelError, ValueError) as err:
        print(f"error[input]: {err}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))
    return 0
