"""Batch command line front end.

Loads a JSON model file of named spaces, metrics, measures, functions,
kernels and relations, dispatches one subcommand, and prints a
deterministic report (text, or JSON under --json).  Exit codes: 0 success,
1 domain error (with the machine-readable error code), 2 input or parse
error, 141 stdout closed early by its reader (a broken pipe).
"""

import argparse
import functools
import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import chain, islice

from . import spaces
from .errors import FinmeasError, NotBisimilar
from .integrate import (
    INF,
    StepFunction,
    check_hoelder,
    check_minkowski,
    conjugate_exponent,
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
from .rational import as_fraction, as_ratio, format_float, format_fraction, to_float
from .spaces import FiniteMeasurableSpace, MeasurableSet, product_space, sigma_from_generator


class ModelError(ValueError):
    """Raised for any malformed or unresolved model-file content."""


_SECTIONS = ("spaces", "metrics", "measures", "functions", "kernels", "relations")


class Model:
    """Named collections loaded from one model file."""

    def __init__(self):
        self.spaces = {}
        self.metrics = {}
        self.measures = {}
        self.functions = {}
        self.kernels = {}
        self.relations = {}

    def _get(self, collection, kind, name):
        try:
            return collection[name]
        except (KeyError, TypeError):
            # TypeError: a model reference that is a JSON list or object
            raise ModelError(f"unknown {kind} {name!r}") from None

    def space(self, name):
        return self._get(self.spaces, "space", name)

    def metric(self, name):
        return self._get(self.metrics, "metric", name)

    def measure(self, name, nonneg=False):
        found = self._get(self.measures, "measure", name)
        if nonneg and not isinstance(found, Measure):
            raise ModelError(
                f"measure {name!r} is signed; this command needs nonnegative weights"
            )
        return found

    def function(self, name):
        return self._get(self.functions, "function", name)

    def kernel(self, name):
        return self._get(self.kernels, "kernel", name)


def _ratio(value, context, point=None):
    """as_ratio(value), or a ModelError naming context and point, if given."""
    try:
        return as_ratio(value)
    except (ValueError, TypeError) as err:
        where = context if point is None else f"{context}[{point!r}]"
        raise ModelError(f"{where}: {err}") from None


def _rational(value, context, point=None):
    return Fraction(*_ratio(value, context, point))


def _require_dict(entry, context):
    if not isinstance(entry, dict):
        raise ModelError(f"{context} must be a JSON object")
    return entry


def _strings(value, context):
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ModelError(f"{context} must be a list of strings")
    return value


def _by_atom(space, mapping, context, value=_rational):
    """Resolve a point-keyed JSON object to {atom index: value(entry, context,
    point)}: each key a point of the space, and one key per atom."""
    resolved = {}
    seen = {}
    for point, entry in mapping.items():
        try:
            k = space.atom_index_of_point(point)
        except ValueError:
            raise ModelError(f"{context}: unknown point {point!r}") from None
        if k in seen:
            raise ModelError(
                f"{context}: points {seen[k]!r} and {point!r} hit the same atom"
            )
        seen[k] = point
        resolved[k] = value(entry, context, point)
    return resolved


def _section(doc, section, kind):
    """(name, entry) for each entry of a model section, in name order."""
    for name, entry in sorted(doc.get(section, {}).items()):
        yield name, _require_dict(entry, f"{kind} {name!r}")


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
    for name, entry in _section(doc, "spaces", "space"):
        if "product" in entry:
            refs = _strings(entry["product"], f"space {name!r}: product")
            if len(refs) != 2:
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

    for name, entry in _section(doc, "metrics", "metric"):
        if name in model.spaces or name in pending_products:
            raise ModelError(f"metric {name!r} collides with a space name")
        try:  # a bad distance is as_ratio's ValueError, named here once
            points = _strings(entry["points"], "points")
            rows = entry["dist"]
            # a string would iterate as a row of one-character distances
            if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
                raise ModelError("dist must be a list of lists")
            metric = spaces.FiniteMetric.from_points(
                points, [[Fraction(*as_ratio(v)) for v in row] for row in rows]
            )
        except (FinmeasError, ValueError, TypeError, KeyError) as err:
            raise ModelError(f"metric {name!r}: {err}") from None
        model.metrics[name] = metric
        model.spaces[name] = metric.space

    # loop, not recurse: a long product chain would overflow the stack; the
    # products of one file share the limits of one product
    built = (0, 0)  # points and label bytes of the products built so far
    while pending_products:
        progressed = False
        for name, (left, right) in sorted(pending_products.items()):
            if left in model.spaces and right in model.spaces:
                factors = model.spaces[left], model.spaces[right]
                size = spaces.product_size(*factors)
                built = built[0] + size[0], built[1] + size[1]
                limits = spaces.MAX_PRODUCT_POINTS, spaces.MAX_PRODUCT_LABEL_BYTES
                # a product past the limits on its own keeps product_space's message
                if size[0] <= limits[0] and size[1] <= limits[1] and (
                    built[0] > limits[0] or built[1] > limits[1]
                ):
                    raise ModelError(
                        "space {!r}: the model's products would take {} points and"
                        " {} label bytes, past the limits {} and {}".format(
                            name, *built, *limits
                        )
                    )
                try:
                    model.spaces[name] = product_space(*factors)
                except (FinmeasError, ValueError) as err:
                    raise ModelError(f"space {name!r}: {err}") from None
                del pending_products[name]
                progressed = True
        if not progressed:
            raise ModelError(
                f"unresolved product spaces: {sorted(pending_products)}"
            )

    for name, entry in _section(doc, "measures", "measure"):
        space = model.space(entry.get("space"))
        weights = _by_atom(
            space, _require_dict(entry.get("weights", {}), "weights"),
            f"measure {name!r}", _ratio,
        )
        cls = Measure if all(n >= 0 for n, _ in weights.values()) else SignedMeasure
        model.measures[name] = cls.from_atom_weights(space, weights)

    for name, entry in _section(doc, "functions", "function"):
        space = model.space(entry.get("space"))
        values = _by_atom(
            space, _require_dict(entry.get("values", {}), "values"),
            f"function {name!r}",
        )
        values = [values.get(k, 0) for k in range(space.n_atoms)]
        model.functions[name] = StepFunction(space, values)

    for name, entry in _section(doc, "kernels", "kernel"):
        domain = model.space(entry.get("domain"))
        codomain = model.space(entry.get("codomain"))
        rows = _by_atom(
            domain, _require_dict(entry.get("rows", {}), f"kernel {name!r} rows"),
            f"kernel {name!r}",
            lambda row, at, point: _by_atom(
                codomain, _require_dict(row, "row"), f"{at}[{point!r}]", _ratio
            ),
        )
        if len(rows) != domain.n_atoms:
            raise ModelError(f"kernel {name!r}: needs one row per domain atom")
        kind = entry.get("kind")
        if kind is not None and not isinstance(kind, str):
            raise ModelError(f"kernel {name!r}: kind must be a string")
        try:
            rows = [Measure.from_atom_weights(codomain, rows[k]) for k in sorted(rows)]
            model.kernels[name] = Kernel(domain, codomain, rows, kind)
        except (FinmeasError, ValueError) as err:
            raise ModelError(f"kernel {name!r}: {err}") from None

    for name, entry in _section(doc, "relations", "relation"):
        names = entry.get("left"), entry.get("right")
        left, right = map(model.space, names)
        pairs_doc = entry.get("pairs", [])
        if not isinstance(pairs_doc, list):
            raise ModelError(f"relation {name!r}: pairs must be a JSON list")
        pairs = set()
        for pair in pairs_doc:
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
        model.relations[name] = (*names, canonical)
    return model


def _unique_keys(pairs):
    """A JSON object hook that refuses a key given twice in one object."""
    obj = dict(pairs)
    if len(obj) < len(pairs):  # name the first key seen twice
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ModelError(f"duplicate JSON key {key!r}")
            seen.add(key)
    return obj


def load_model(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle, object_pairs_hook=_unique_keys)
        except ModelError:  # a duplicate key, from the hook
            raise
        except UnicodeDecodeError as err:
            raise ModelError(f"{path} is not UTF-8: {err}") from None
        except (ValueError, RecursionError) as err:
            # a syntax error, an integer literal past the digit limit, or
            # nesting deeper than the recursion limit
            raise ModelError(f"invalid JSON in {path}: {err}") from None
    return parse_model(doc)


def _parse_exponent(text):
    if text in ("inf", "infinity", "oo"):
        return INF
    try:
        return as_fraction(text)
    except (ValueError, TypeError) as err:
        raise ModelError(f"bad exponent {text!r}: {err}") from None


def _exponent_text(p):
    return "inf" if p == INF else format_fraction(p)


def _names(text):
    return [n for n in text.split(",") if n]


def _parse_point_set(space, text):
    points = _names(text)
    for p in points:
        try:
            space.point_index(p)
        except ValueError:
            raise ModelError(f"unknown point {p!r}") from None
    return MeasurableSet(space, points)


# ---------------------------------------------------------------- commands
#
# Each handler returns its results as exact values (Fractions, bools and
# library objects), keyed and ordered as in the JSON report.  _run puts the
# command name and the echoed arguments in front and renders the report
# once, as JSON, and as text only for a text report.

class Command(namedtuple("Command", "path handler flags refs text help echo options")):
    def build(self, parser):
        """Add the command's flags to the parser made for it; func runs it."""
        for flag in self.flags:
            parser.add_argument(flag, **{"required": True, **self.options.get(flag, {})})
        parser.set_defaults(func=functools.partial(_run, self))


_COMMANDS = []

# flags whose parsed value the handler reports itself, so they are not echoed
_PARSED = ("--set", "--p", "--gamma", "--formula")

# the reader of each kind of model reference: reader(model, flag value)
_READ = {
    "space": Model.space,
    "metric": Model.metric,
    "measure": functools.partial(Model.measure, nonneg=True),
    "signed": Model.measure,
    "measures": lambda model, names: [model.measure(n, nonneg=True) for n in names],
    "function": Model.function,
    "kernel": Model.kernel,
    "exponent": lambda model, text: _parse_exponent(text),
}

_GROUPS = {
    "measure": "measure operations",
    "decompose": "measure decompositions",
    "ineq": "integral inequalities",
    "kernel": "kernel operations",
    "dist": "distances between measures",
    "logic": "modal logic",
    "bisim": "bisimilarity",
    "functional": "linear functionals",
}


def _command(path, flags, text, help=None, echo=None, options=None):
    """Add a handler to the command table.

    flags: the command's flags, required unless ``options`` (add_argument
    options per flag) say otherwise.  ``--flag=kind`` names a model entry of
    a _READ kind: _run reads those entries in flag order and calls
    ``handler(args, *entries)``.  text: the text report; its {key} and
    {key:spec} fields name report keys (see _text), and a line naming a
    missing or null key is left out.  echo: the echoed flags, if not all
    but _PARSED.
    """
    flags = [flag.partition("=") for flag in flags.split()]
    refs = tuple((flag[2:], kind) for flag, _, kind in flags if kind)
    flags = [flag for flag, _, _ in flags]
    echo = echo or tuple(flag[2:] for flag in flags if flag not in _PARSED)

    def register(handler):
        _COMMANDS.append(
            Command(path, handler, flags, refs, text, help, echo, options or {})
        )
        return handler

    return register


@_command(
    "space",
    "--name=space",
    "space {name}: {points:count} points, {atoms:count} atoms\n"
    "  points: {points}\n  atoms: {atoms}",
    help="describe a space",
)
def _space(args, space):
    return {"points": space.points, "atoms": space.atoms}


@_command(
    "measure eval",
    "--measure=signed --set",
    "{measure}({set:set}) = {value}",
    options={"--set": {"help": "comma separated points"}},
)
def _measure_eval(args, measure):
    subset = _parse_point_set(measure.space, args.set)
    return {"set": subset, "value": measure.eval(subset)}


@_command(
    "decompose jordan",
    "--measure=signed",
    "plus:\n{plus}\nminus:\n{minus}\nvariation:\n{variation}\n"
    "total variation = {total_variation}",
)
def _decompose_jordan(args, measure):
    plus, minus, variation = jordan_decompose(measure)
    return {
        "plus": plus,
        "minus": minus,
        "variation": variation,
        "total_variation": variation.total(),
    }


@_command(
    "decompose lebesgue",
    "--num=measure --den=measure",
    "absolutely continuous:\n{absolutely_continuous}\nsingular:\n{singular}\n"
    "density:\n{density}",
)
def _decompose_lebesgue(args, mu, nu):
    ac, singular, density = lebesgue_decompose(mu, nu)
    return {"absolutely_continuous": ac, "singular": singular, "density": density}


@_command(
    "rn",
    "--num=measure --den=measure",
    "d{num}/d{den}:\n{density}",
    help="Radon-Nikodym density",
)
def _rn(args, mu, nu):
    return {"density": radon_nikodym(mu, nu)}


@_command(
    "integrate",
    "--function=function --measure=measure --layered",
    "{layered:?layered }integral {function} d{measure} = {value}",
    help="integrate a step function",
    options={
        "--layered": {
            "action": "store_true",
            "required": False,
            "help": "use the layer-cake formula",
        }
    },
)
def _integrate(args, f, mu):
    return {"value": layered_integral(f, mu) if args.layered else integral(f, mu)}


@_command(
    "lp-norm",
    "--function=function --measure=measure --p=exponent",
    "lp-norm p={p}: {value}\n  exact squared norm = {squared}",
    help="Lp norm",
)
def _lp_norm(args, f, mu, p):
    result = {"p": _exponent_text(p), "value": lp_norm(f, mu, p)}
    if p == 2 and not args.float_mode:
        result["squared"] = lp_norm_squared(f, mu)
    return result


def _inequality(checker, f, g, mu, p):
    lhs, rhs, holds = checker(f, g, mu, p)
    return {"p": _exponent_text(p), "lhs": lhs, "rhs": rhs, "holds": bool(holds)}


_INEQUALITY = "--left=function --right=function --measure=measure --p=exponent"
_BOUND = " p={p}: lhs = {lhs}, rhs = {rhs}, holds = {holds}"


@_command("ineq hoelder", _INEQUALITY, "hoelder" + _BOUND)
def _ineq_hoelder(args, *entries):
    return _inequality(check_hoelder, *entries)


@_command("ineq minkowski", _INEQUALITY, "minkowski" + _BOUND)
def _ineq_minkowski(args, *entries):
    return _inequality(check_minkowski, *entries)


@_command(
    "delta",
    "--left=function --right=function --measure=measure",
    "delta({left}, {right}) = {value}",
    help="convergence-in-measure distance",
)
def _delta(args, f, g, mu):
    return {"value": conv_in_measure_distance(f, g, mu)}


@_command(
    "product",
    "--left=measure --right=measure",
    "product measure {left} x {right}:\n{weights}",
    help="product measure",
)
def _product(args, mu, nu):
    return {"weights": product_measure(mu, nu)}


@_command(
    "fubini",
    "--function=function --left=measure --right=measure",
    "direct = {direct}\niterated xy = {iterated_xy}\niterated yx = {iterated_yx}\n"
    "agree = {agree}",
    help="direct vs iterated integrals",
    echo=("function",),
)
def _fubini(args, f, mu, nu):
    direct, xy, yx = fubini(f, mu, nu)
    agree = direct == xy == yx
    return {"direct": direct, "iterated_xy": xy, "iterated_yx": yx, "agree": agree}


@_command(
    "kernel compose",
    "--left=kernel --right=kernel",
    "{left} * {right} (kind {kind}):\n{rows}",
    options={
        "--left": {"help": "applied second"},
        "--right": {"help": "applied first"},
    },
)
def _kernel_compose(args, left, right):
    result = convolve(left, right)
    return {"kind": result.kind, "rows": result}


@_command(
    "kernel lift",
    "--kernel=kernel --measure=measure",
    "lift of {measure} through {kernel}:\n{weights}",
)
def _kernel_lift(args, kernel, mu):
    return {"weights": kleisli_lift(kernel, mu)}


@_command(
    "kernel path",
    "--kernel=kernel --start --horizon",
    "path measure from {start}, horizon {horizon}:\n{weights}\ntotal = {total}",
    options={"--horizon": {"type": int}},
)
def _kernel_path(args, kernel):
    result = path_measure(kernel, args.start, args.horizon)
    return {"weights": result, "total": result.total()}


@_command(
    "disintegrate",
    "--measure=measure",
    "marginal:\n{marginal}\nconditional kernel (kind {kernel_kind}):\n{kernel}\n"
    "null fibers: {null_fibers}",
    help="joint to marginal and kernel",
)
def _disintegrate(args, joint):
    marginal, kernel, null_fibers = disintegrate(joint)
    return {
        "marginal": marginal,
        "kernel_kind": kernel.kind,
        "kernel": kernel,
        "null_fibers": null_fibers,
    }


@_command("dist prohorov", "--left=measure --right=measure --metric=metric", "{value}")
def _dist_prohorov(args, mu, nu, metric):
    from .metrics import prohorov_distance

    return {"value": prohorov_distance(mu, nu, metric)}


@_command(
    "dist hutchinson",
    "--left=measure --right=measure --metric=metric --gamma",
    "{value}\nwitness: {witness:[]}",
)
def _dist_hutchinson(args, mu, nu, metric):
    from .metrics import hutchinson_distance

    gamma = _rational(args.gamma, "--gamma")
    value, witness = hutchinson_distance(mu, nu, metric, gamma)
    return {"gamma": format_fraction(gamma), "value": value, "witness": witness.values}


@_command(
    "weak-check",
    "--sequence=measures --limit=measure --metric=metric --tol",
    "converges = {converges}\n"
    "per-atom ok = {per_atom_ok} (residual {per_atom_residual})\n"
    "portmanteau ok = {portmanteau_ok} (excess {portmanteau_excess})\n"
    "mass ok = {mass_ok} (residual {mass_residual})\n"
    "criteria agree = {criteria_agree}\n"
    "witness set: {witness_set:set}",
    help="weak-convergence report",
    echo=("sequence", "limit", "tol"),
    options={
        "--sequence": {"type": _names, "help": "comma separated measure names"},
        "--tol": {"type": float},
    },
)
def _weak_check(args, sequence, limit, metric):
    from .metrics import check_weak_limit

    tol = args.tol
    if 0 <= tol < INF:  # decide with the decimal typed, not the float nearest it
        tol = Fraction(repr(tol))
    report = check_weak_limit(sequence, limit, metric, tol)
    return {
        "converges": report.converges,
        "per_atom_ok": report.per_atom_ok,
        "portmanteau_ok": report.portmanteau_ok,
        "mass_ok": report.mass_ok,
        "criteria_agree": report.criteria_agree(),
        "per_atom_residual": report.per_atom_residual,
        "portmanteau_excess": report.portmanteau_excess,
        "mass_residual": report.mass_residual,
        "witness_set": report.witness_set,
    }


@_command(
    "logic check", "--kernel=kernel --formula", "[[{formula}]] = {validity_set:set}"
)
def _logic_check(args, kernel):
    from .logic_bisim import parse_formula, validity_set

    phi = parse_formula(args.formula)
    return {"formula": repr(phi), "validity_set": validity_set(kernel, phi)}


@_command(
    "logic quotient",
    "--kernel=kernel",
    "blocks: {blocks}\nquotient kernel (kind {kind}):\n{rows}",
)
def _logic_quotient(args, kernel):
    from .logic_bisim import logical_equivalence, quotient_kernel

    partition = logical_equivalence(kernel)
    quotient = quotient_kernel(kernel, partition)
    return {"blocks": partition.blocks, "kind": quotient.kind, "rows": quotient}


@_command(
    "bisim mediate",
    "--left=kernel --right=kernel",
    "bisimilar: yes\niso: {iso}\nmediating kernel (kind {kind}):\n{rows}\n"
    "common events: {common_events:~}",
)
def _bisim_mediate(args, k1, k2):
    from .logic_bisim import (
        find_quotient_iso,
        logical_equivalence,
        mediate,
        quotient_kernel,
    )

    if not (k1.is_endo() and k2.is_endo()):
        raise ModelError("bisim mediate works on endokernels")
    p1 = logical_equivalence(k1)
    p2 = logical_equivalence(k2)
    iso = find_quotient_iso(quotient_kernel(k1, p1), quotient_kernel(k2, p2))
    if iso is None:
        raise NotBisimilar("logical quotients are not isomorphic")
    result = mediate(k1, k2, p1, p2, iso)
    kernel = result.kernel
    return {
        "iso": dict(sorted(iso[0].items())),
        "a_atoms": kernel.domain.atoms,
        "b_atoms": kernel.codomain.atoms,
        "kind": kernel.kind,
        "rows": kernel,
        "common_events": None if result.common_events_trivial else result.common_events,
    }


_FUNCTIONAL = {"--functional": {"help": "a functions entry"}}


@_command(
    "functional to-measure",
    "--functional=function",
    "represented measure:\n{weights}\ntotal = {total}",
    options=_FUNCTIONAL,
)
def _functional_to_measure(args, f):
    measure = measure_from_functional(LinearFunctional(f.space, f.values))
    return {"weights": measure, "total": measure.total()}


@_command(
    "functional dual",
    "--functional=function --measure=measure --p=exponent",
    "density g:\n{density}\noperator norm (q={q}) = {norm}\n"
    "  exact squared norm = {norm_squared}",
    options=_FUNCTIONAL,
)
def _functional_dual(args, f, mu, p):
    density, norm = lp_dual_density(LinearFunctional(f.space, f.values), mu, p)
    q = _exponent_text(conjugate_exponent(p))
    result = {"p": _exponent_text(p), "q": q, "density": density, "norm": norm}
    if q == "2" and not args.float_mode:
        result["norm_squared"] = lp_norm_squared(density, mu)
    return result


# ----------------------------------------------------------------- render


class _Rows(list):
    """A kernel's JSON rows; ``columns`` keeps its codomain atoms for the text."""


def _formatted(measure, float_mode):
    """A measure's formatted weight per atom: the zero once, each nonzero once."""
    d, cols, nums = measure.form
    formatted = [_plain(0, float_mode)] * measure.space.n_atoms
    for j, num in zip(cols, nums):
        formatted[j] = _plain(Fraction(num, d), float_mode)
    return formatted


def _plain(value, float_mode):
    """The JSON form of an exact result, with each number formatted once."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (Fraction, int, float)):
        if float_mode or isinstance(value, float):
            return float(format_float(to_float(value)))
        return format_fraction(value)
    if isinstance(value, Kernel):
        rows = _Rows(
            {"atom": list(atom), "weights": _formatted(row, float_mode)}
            for atom, row in zip(value.domain.atoms, value.rows)
        )
        rows.columns = _plain(value.codomain.atoms, float_mode)
        return rows
    if isinstance(value, (SignedMeasure, StepFunction)):
        if isinstance(value, StepFunction):
            values = _plain(value.values, float_mode)
        else:
            values = _formatted(value, float_mode)
        return [
            {"atom": list(atom), "value": v}
            for atom, v in zip(value.space.atoms, values)
        ]
    if isinstance(value, MeasurableSet):
        return value.sorted_points()
    if isinstance(value, dict):
        return {key: _plain(v, float_mode) for key, v in value.items()}
    return [_plain(v, float_mode) for v in value]


class _Absent(Exception):
    """A template line names a missing or null report value."""


_FIELD = re.compile(r"\{(\w+)(?::([^}]*))?\}")


def _set(points):
    return "{" + ",".join(points) + "}"


def _text(value, spec=""):
    """The text of one JSON report value under a template field's spec.

    Specs: "count" (length), "?words" (words when true), "~" (a pair of
    sets, or trivial when null), "set" ({a,b}) and "[]" ([x, y]).  Without
    a spec, lists of points are comma separated, lists of atoms are sets,
    weights and kernel rows are indented blocks and dicts are k->v pairs.
    """
    if isinstance(value, str):
        return value
    if spec == "count":
        return str(len(value))
    if spec.startswith("?"):
        return spec[1:] if value else ""
    if spec == "~":
        return " ~ ".join(map(_set, value)) if value else "trivial"
    if value is None:
        raise _Absent
    if spec == "set":
        return _set(value)
    if spec == "[]":
        return "[" + ", ".join(map(_text, value)) + "]"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, dict):
        return ", ".join(f"{key}->{v}" for key, v in value.items())
    if isinstance(value, _Rows):
        rows = [f"  row {_set(r['atom'])}: {_row(r['weights'])}" for r in value]
        return "\n".join(["  columns: " + _text(value.columns)] + rows)
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return "\n".join(f"  {_set(w['atom'])}: {_text(w['value'])}" for w in value)
    if isinstance(value, list):
        return ", ".join(_set(v) if isinstance(v, list) else v for v in value) or "none"
    return str(value)


def _row(weights):
    """A kernel row as [x, y], each distinct weight formatted once.  Keying
    by value is safe here: weights are nonnegative, so none is a -0.0 that
    would share 0.0's key but not its text."""
    text = {w: _text(w) for w in set(weights)}
    return "[" + ", ".join(map(text.__getitem__, weights)) + "]"


def _run(command, args, model):
    """Run one command: its JSON payload, and its text lines rendered lazily."""
    entries = [_READ[kind](model, getattr(args, dest)) for dest, kind in command.refs]
    result = command.handler(args, *entries)
    payload = {"command": command.path}
    payload.update((dest, getattr(args, dest)) for dest in command.echo)
    payload.update((key, _plain(v, args.float_mode)) for key, v in result.items())

    def lines():
        for template in command.text.split("\n"):
            try:
                yield _FIELD.sub(
                    lambda m: _text(payload.get(m[1]), m[2] or ""), template
                )
            except _Absent:
                pass

    return payload, lines()


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


class _Deferred:
    """A subparser built when it parses: argparse parses only the chosen one."""

    def __init__(self, build, **kwargs):
        self.build, self.kwargs = build, kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self.kwargs)
        self.build(parser)
        return parser.parse_known_args(args, namespace)


def _add_commands(parser, parent, group=""):
    """Add the group's commands to parser, at the top its groups too."""
    dest = "subcommand" if group else "command"
    sub = parser.add_subparsers(dest=dest, required=True, parser_class=_Deferred)
    for command in _COMMANDS:
        head, _, name = command.path.rpartition(" ")
        if head == group:
            described = {"help": command.help} if command.help else {}
            sub.add_parser(name, parents=[parent], build=command.build, **described)
        elif not group and head not in sub.choices:
            build = functools.partial(_add_commands, parent=parent, group=head)
            sub.add_parser(head, help=_GROUPS[head], build=build)


def build_parser():
    """The argparse tree of the command table; each leaf's func runs _run.
    Group and leaf parsers are made only when a command line selects them."""
    parser = argparse.ArgumentParser(
        prog="finmeas",
        description="Exact measure theory on finite spaces, batch interface.",
    )
    _add_commands(parser, _common_parent())
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
    if args.json:  # written in batches of chunks, never as one string
        chunks = json.JSONEncoder(indent=2).iterencode(payload)
    else:  # the lines with a newline between each two
        chunks = islice(chain.from_iterable(("\n", line) for line in lines), 1, None)
    try:
        while batch := "".join(islice(chunks, 4096)):
            sys.stdout.write(batch)
        print()
        sys.stdout.flush()
    except BrokenPipeError:
        # exit as a shell reports SIGPIPE, stdout on devnull for the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0
