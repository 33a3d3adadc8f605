"""Declarative configuration, suite orchestration and report emission.

A workbench configuration is a single JSON document holding one Lie algebra
block, named functional tables, named matrix representations, and a list of
suite descriptors.  Value encodings: rationals are ``"a/b"`` strings,
complex scalars two-element arrays ``["a/b", "c/d"]``, multi-indices
comma-joined integers ``"a,b,c"``.  Unknown keys are rejected by name, and
the algebra is validated (Jacobi + submultiplicativity) at load.

Reports come in two shapes: human text, and machine records with one JSON
object per check.  Machine records carry no timing, so exact-mode runs are
byte-identical across repetitions.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import io
import json
import math
import random
import sys
import time
from contextlib import contextmanager
from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, List, Optional

import numpy as np

from . import free_algebra as fa
from .catalog import gaussian_char
from .errors import ConfigError, SuiteError, UnknownSuiteError, WorkbenchError
from .functionals import (
    FunctionalTable,
    growth_diagnostics,
    radius_estimate,
    recursion_check,
)
from .gns import (
    MatrixRep,
    analytic_diagnostics,
    functional_from_rep,
    gns_build,
    moment_matrix,
    orbit_gram,
    psd_check,
)
from .group_integration import (
    _single_blas_thread,
    cauchy_estimate_check,
    extension_demo,
    extension_demo_table,
    local_hom_check,
    pd_kernel_check,
    sample_group,
)
from .lie_structure import (
    GVector,
    LieAlgebraSpec,
    jacobi_validate,
    pbw_mul,
    pbw_reduce,
    submult_check,
)
from .sampling import random_skew_rep, random_vector, random_word
from .scalars import format_fraction, format_scalar, parse_fraction, parse_scalar

__all__ = [
    "WorkbenchConfig",
    "SuiteSpec",
    "Check",
    "Report",
    "parse_config",
    "serialize_config",
    "run_suite",
    "run_all",
    "SUITES",
    "SUITE_NAMES",
    "main",
    "main_entry",
]

MAX_DIM = 4
MAX_DEGREE = 10
MAX_TABLE_DEGREE = 20
MAX_TOL = 1e-6


# ---------------------------------------------------------------------------
# configuration model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    params: dict


@dataclass
class WorkbenchConfig:
    algebra: LieAlgebraSpec
    functionals: dict
    representations: dict
    suites: List[SuiteSpec]

    def canonical(self):
        return _config_to_dict(self)

    def __eq__(self, other):
        if not isinstance(other, WorkbenchConfig):
            return NotImplemented
        return self.canonical() == other.canonical()


def _expect_keys(mapping, context, required, optional=()):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be an object")
    for key in mapping:
        if key not in required and key not in optional:
            raise ConfigError(
                f"unknown key {key!r} in {context} "
                f"(allowed: {', '.join(sorted(set(required) | set(optional)))})"
            )
    for key in required:
        if key not in mapping:
            raise ConfigError(f"missing key {key!r} in {context}")


def _parse_index(text, dim, context):
    """The ``dim`` ints of a key like ``'0,1,0'``, in its one canonical text."""
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != dim or any(p < 0 for p in parts) or ",".join(map(str, parts)) != text:
        raise ConfigError(
            f"{context}: key {text!r} must be {dim} comma-separated nonnegative "
            "integers, without signs, spaces or leading zeros"
        )
    return parts


@contextmanager
def _named(context, errors=ValueError):
    """Re-raise ``errors`` from the block as ``ConfigError("<context>: <error>")``."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _field(block, key, check, context):
    """``block[key]`` once ``check`` passes; a failure names ``context.key``."""
    value = block[key]
    with _named(f"{context}.{key}"):
        check(value, None)
    return value


def _parse_algebra(block):
    _expect_keys(block, "lie_algebra", ("dim", "basis_names", "structure", "weights"))
    dim = _field(block, "dim", _integer(1, MAX_DIM), "lie_algebra")
    names = _field(block, "basis_names", _JSON_LIST, "lie_algebra")
    weights = _field(block, "weights", _JSON_LIST, "lie_algebra")
    structure = {}
    if not isinstance(block["structure"], dict):
        raise ConfigError("lie_algebra.structure must be an object")
    for key, row in block["structure"].items():
        context = f"lie_algebra.structure[{key!r}]"
        i, j = _parse_index(key, 2, context)
        if not i < j < dim:
            raise ConfigError(f"{context}: key must name a pair i < j < dim")
        if not isinstance(row, dict):
            raise ConfigError(f"{context} must be an object")
        parsed = {}
        for k, c in row.items():
            (kk,) = _parse_index(k, 1, context)
            if not kk < dim:
                raise ConfigError(f"{context}: target {k!r} out of range")
            with _named(f"{context}[{k}]"):
                parsed[kk] = parse_scalar(c)
        structure[(i, j)] = parsed
    with _named("lie_algebra.weights"):
        weights = [parse_fraction(w) for w in weights]
    with _named("lie_algebra", (ValueError, TypeError)):
        spec = LieAlgebraSpec(dim, names, structure, weights)
    jac = jacobi_validate(spec)
    if not jac.ok:
        raise ConfigError(f"lie_algebra violates the Jacobi identity at triple {jac.witness}")
    sub = submult_check(spec)
    if not sub.ok:
        raise ConfigError(
            f"weights are not submultiplicative at pair {sub.witness}: "
            f"{sub.lhs} > {sub.rhs}"
        )
    return spec


def _parse_functional(name, block, spec):
    _expect_keys(block, f"functionals.{name}", ("max_degree", "values"))
    degree = _field(block, "max_degree", _integer(0, MAX_TABLE_DEGREE), f"functionals.{name}")
    values = {}
    if not isinstance(block["values"], dict):
        raise ConfigError(f"functionals.{name}.values must be an object")
    for key, raw in block["values"].items():
        alpha = _parse_index(key, spec.dim, f"functionals.{name}.values")
        if sum(alpha) > degree:
            raise ConfigError(
                f"functionals.{name}: index {key!r} exceeds max_degree {degree}"
            )
        with _named(f"functionals.{name}[{key}]"):
            values[alpha] = parse_scalar(raw)
    return FunctionalTable(spec, degree, values)


def _parse_complex(value):
    """A float-mode entry: a finite number (a JSON number or a ``complex()`` string).

    JSON ``true``/``false`` are rejected, as exact entries reject them, and so
    are NaN and the infinities, in JSON or in a string.
    """
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {str(value).lower()}")
    z = complex(value)
    if not cmath.isfinite(z):
        raise ValueError(f"expected a finite number, got {value!r}")
    return z


def _format_complex(z):
    """A float-mode entry as ``"re+imj"``, which :func:`_parse_complex` reads back bit for bit.

    Both parts are written, so neither loses the sign of a zero, and equal
    strings mean equal bits (config equality compares them).  The parts are
    read as Python floats, whose repr carries no numpy type name.
    """
    z = complex(z)
    return f"{z.real!r}{z.imag:+}j"


def _lists(value, depth, decode):
    """``value`` as JSON lists nested ``depth`` deep, each entry decoded."""
    if not isinstance(value, list):
        raise ValueError(f"expected a JSON list, got {value!r}")
    return [_lists(v, depth - 1, decode) if depth > 1 else decode(v) for v in value]


def _parse_representation(name, block, spec):
    context = f"representations.{name}"
    _expect_keys(
        block, context, ("dim_V", "generators", "cyclic_vector", "skew_hermitian"), ("mode",)
    )
    dim_V = _field(block, "dim_V", _integer(1, 16), context)
    skew = _field(block, "skew_hermitian", _JSON_BOOL, context)
    mode = block.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise ConfigError(f"{context}.mode must be 'exact' or 'float'")
    gens = block["generators"]
    if not isinstance(gens, list) or len(gens) != spec.dim:
        raise ConfigError(f"{context}.generators must list {spec.dim} matrices")
    decode = parse_scalar if mode == "exact" else _parse_complex
    with _named(f"{context}.generators", (ValueError, TypeError)):
        generators = _lists(gens, 3, decode)
    with _named(f"{context}.cyclic_vector", (ValueError, TypeError)):
        cyclic = _lists(block["cyclic_vector"], 1, decode)
        if not any(cyclic):
            raise ValueError("must be a nonzero vector")
    with _named(context, (ValueError, TypeError, WorkbenchError)):
        rep = MatrixRep(
            spec, dim_V, generators, cyclic,
            skew_hermitian=skew,
            exact=(mode == "exact"), name=name,
        )
        rep.validate()
    return rep


# Parameter checks take (value, config) and raise ValueError saying what the
# value must be; _suite_params names the suite and the key.


def _check(test, what):
    def check(value, config):
        try:
            ok = test(value, config)
        except (ValueError, OverflowError):
            ok = False
        if not ok:
            raise ValueError(f"must be {what}")

    return check


def _integer(lo, hi=math.inf):
    return _check(lambda v, c: type(v) is int and lo <= v <= hi, f"an integer in [{lo}, {hi}]")


def _real(test, what):
    return _check(lambda v, c: type(v) in (int, float) and math.isfinite(v) and test(v), what)


def _rational(test=lambda q: True, what="a rational"):
    # the suites also read their rationals in binary64; float() overflows beyond it
    return _check(lambda v, c: test(q := parse_fraction(v)) and math.isfinite(float(q)),
                  f"{what} like '1/2', finite in binary64")


def _gvector(value, config):
    if not isinstance(value, list):
        raise ValueError("must be a list of scalars")
    _vector(config.algebra, value)


def _list(item):
    def check(value, config):
        if not isinstance(value, list) or not value:
            raise ValueError("must be a nonempty list")
        for entry in value:
            item(entry, config)

    return check


def _distinct(item):
    listed = _list(item)

    def check(value, config):
        listed(value, config)
        first = {}
        for k, entry in enumerate(value):
            if first.setdefault(parse_fraction(entry), k) != k:
                raise ValueError(f"{entry!r} is given more than once")

    return check


def _increasing(item):
    listed = _list(item)

    def check(value, config):
        listed(value, config)
        if any(a >= b for a, b in zip(value, value[1:])):
            raise ValueError("must be strictly increasing")

    return check


def _ref(kind, names):
    def check(value, config):
        known = names(config)
        if not isinstance(value, str) or value not in known:
            raise ValueError(f"unknown {kind} {value!r} (known: {', '.join(sorted(known))})")

    return check


_JSON_LIST = _check(lambda v, c: isinstance(v, list), "a JSON list")
_JSON_BOOL = _check(lambda v, c: isinstance(v, bool), "true or false")
_DEGREE = _integer(0, MAX_DEGREE)
_POSITIVE_DEGREE = _integer(1, MAX_DEGREE)
_COUNT = _integer(0)
_POSITIVE = _integer(1)
_POSITIVE_RATIONAL = _rational(lambda q: q > 0, "a positive rational")
_TOLERANCE = _real(lambda v: 0 <= v <= MAX_TOL, f"a number in [0, {MAX_TOL}]")
_FUNCTIONAL = _ref("functional", lambda config: config.functionals)
_REPRESENTATION = _ref("representation", lambda config: config.representations)


def _exact_representation(value, config):
    # the algebra-side suites build exact functionals, moment matrices and models
    _REPRESENTATION(value, config)
    if not config.representations[value].exact:
        raise ValueError(f"{value!r} is a float representation; this suite needs exact ones")


def _skew(check):
    # cauchy and extension bound unitary orbits, so they need skew-hermitian reps
    def skew(value, config):
        check(value, config)
        if not config.representations[value].skew_hermitian:
            raise ValueError(f"{value!r} is not skew-hermitian; this suite needs unitary ones")

    return skew


@dataclass(frozen=True)
class Suite:
    """A verification suite: its runner and its parameters.

    ``params`` maps each parameter to ``(default, check)``; an absent or null
    parameter takes its default, and a ``None`` default leaves it unset.
    ``requires`` lists alternative sets of parameters, one of which must be
    fully set.  ``degree`` names the parameter that ``--degree`` overrides;
    ``--tolerance`` overrides the parameter named ``tolerance``.  ``consistent``
    checks the filled parameters together, raising ValueError("key: why").
    """

    runner: Callable
    params: dict
    requires: tuple = ((),)
    degree: Optional[str] = None
    consistent: Optional[Callable] = None


def _suite_params(name, given, config, context):
    """Parameters of suite ``name``: ``given`` plus defaults, all checked.

    Raises ConfigError naming ``context`` and the offending key.
    """
    suite = SUITES[name]
    _expect_keys(given, context, (), suite.params)
    params = {}
    for key, (default, check) in suite.params.items():
        value = given.get(key)
        # a copy, so a list default is not shared with every config that omits it
        params[key] = value = copy(default) if value is None else value
        if value is not None:
            with _named(f"{context}: {key}"):
                check(value, config)
    missing = [[k for k in keys if params[k] is None] for keys in suite.requires]
    if all(missing):
        raise ConfigError(
            f"{context} needs parameters: "
            + " or ".join(", ".join(keys) for keys in missing)
        )
    if suite.consistent is not None:
        with _named(context):
            suite.consistent(params, config)
    return params


def _parse_suite(index, block, config):
    if not isinstance(block, dict) or "name" not in block:
        raise ConfigError(f"suites[{index}] must be an object with a 'name'")
    name = block["name"]
    if not isinstance(name, str) or name not in SUITES:
        raise ConfigError(
            f"suites[{index}]: unknown suite {name!r} "
            f"(known: {', '.join(SUITE_NAMES)})"
        )
    first = next((i for i, s in enumerate(config.suites) if s.name == name), None)
    if first is not None:
        raise ConfigError(
            f"suites[{index}] ({name}): name: suite already listed as suites[{first}]"
        )
    given = {key: value for key, value in block.items() if key != "name"}
    return SuiteSpec(name, _suite_params(name, given, config, f"suites[{index}] ({name})"))


def _json_object(pairs):
    """A JSON object as a dict, or as the tuple of its pairs when it repeats a key."""
    obj = dict(pairs)
    return obj if len(obj) == len(pairs) else tuple(pairs)


def _reject_repeats(node, path):
    """Name the first object under ``node`` that repeats a key (``json`` keeps the last)."""
    if isinstance(node, tuple):
        key = next(key for i, (key, _) in enumerate(node) if key in dict(node[:i]))
        raise ConfigError(f"{path}: key {key!r} is given more than once")
    items = enumerate(node) if isinstance(node, list) else getattr(node, "items", tuple)()
    for key, child in items:
        _reject_repeats(child, f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}")


def parse_config(text):
    """Parse and fully validate a workbench configuration."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text, object_pairs_hook=_json_object)
        _reject_repeats(doc, "config")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ConfigError("config nests arrays or objects too deeply") from None
    _expect_keys(doc, "config", ("lie_algebra",),
                 ("functionals", "representations", "suites"))
    for key, kind in (("functionals", dict), ("representations", dict), ("suites", list)):
        if doc.setdefault(key, None) is None:   # an absent or null block is empty
            doc[key] = kind()
        elif not isinstance(doc[key], kind):
            what = "an object" if kind is dict else "a list"
            raise ConfigError(f"config.{key}: must be {what}")
    spec = _parse_algebra(doc["lie_algebra"])
    config = WorkbenchConfig(spec, {}, {}, [])
    for name, block in doc["functionals"].items():
        config.functionals[name] = _parse_functional(name, block, spec)
    for name, block in doc["representations"].items():
        config.representations[name] = _parse_representation(name, block, spec)
    for index, block in enumerate(doc["suites"]):
        config.suites.append(_parse_suite(index, block, config))
    return config


def _algebra_to_dict(spec):
    return {
        "dim": spec.dim,
        "basis_names": list(spec.basis_names),
        "structure": {
            f"{i},{j}": {str(k): format_scalar(c) for k, c in sorted(row.items())}
            for (i, j), row in sorted(spec.bracket_rows())
        },
        "weights": [format_fraction(w) for w in spec.weights],
    }


def _functional_to_dict(lam):
    table = lam.values
    values = {",".join(str(a) for a in alpha): format_scalar(table[alpha])
              for alpha in sorted(table, key=lambda a: (sum(a), a))}
    return {"max_degree": lam.max_degree, "values": values}


def _representation_to_dict(rep):
    encode = format_scalar if rep.exact else _format_complex
    return {
        "dim_V": rep.dim_V,
        "mode": "exact" if rep.exact else "float",
        "skew_hermitian": rep.skew_hermitian,
        "generators": [
            [[encode(c) for c in row] for row in gen]
            for gen in rep.generators
        ],
        "cyclic_vector": [encode(c) for c in rep.cyclic_vector],
    }


def _config_to_dict(config):
    doc = {"lie_algebra": _algebra_to_dict(config.algebra)}
    if config.functionals:
        doc["functionals"] = {
            name: _functional_to_dict(lam)
            for name, lam in sorted(config.functionals.items())
        }
    if config.representations:
        doc["representations"] = {
            name: _representation_to_dict(rep)
            for name, rep in sorted(config.representations.items())
        }
    if config.suites:
        doc["suites"] = [
            {"name": s.name, **{k: v for k, v in s.params.items() if v is not None}}
            for s in config.suites
        ]
    return doc


def serialize_config(config):
    return json.dumps(_config_to_dict(config), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    identifier: str
    ok: bool
    expected: str
    actual: str
    residual: Optional[float] = None

    @property
    def status(self):
        return "PASS" if self.ok else "FAIL"


@dataclass
class Report:
    suite: str
    checks: List[Check]
    duration: float = 0.0

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    @property
    def status(self):
        return "PASS" if self.ok else "FAIL"


def render_human(reports, out):
    for report in reports:
        out.write(f"== suite {report.suite}: {report.status} ({report.duration:.2f} s)\n")
        for c in report.checks:
            line = f"   {c.identifier}: {c.status}  expected {c.expected}; actual {c.actual}"
            if c.residual is not None:
                line += f"; residual {c.residual:.6e}"
            out.write(line + "\n")
    total = "PASS" if all(r.ok for r in reports) else "FAIL"
    out.write(f"== overall: {total} ({len(reports)} suites)\n")


def render_machine(reports, out):
    # no timing fields: machine reports must be byte-identical across runs
    for report in reports:
        for c in report.checks:
            rec = {
                "kind": "check",
                "suite": report.suite,
                "id": c.identifier,
                "status": c.status,
                "expected": c.expected,
                "actual": c.actual,
                "residual": c.residual,
            }
            out.write(json.dumps(rec, sort_keys=True) + "\n")
        out.write(
            json.dumps(
                {
                    "kind": "suite",
                    "suite": report.suite,
                    "status": report.status,
                    "checks": len(report.checks),
                },
                sort_keys=True,
            )
            + "\n"
        )
    out.write(
        json.dumps(
            {
                "kind": "summary",
                "status": "PASS" if all(r.ok for r in reports) else "FAIL",
                "suites": len(reports),
            },
            sort_keys=True,
        )
        + "\n"
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_bch_identity(config, params, seed):
    N = params["degree"]
    checks = []
    z = fa.fa_bch(max(2, N))
    t11 = fa.fa_bidegree_project(z, 1, 1)
    expected = fa.FreeSeries(2, z.trunc_degree,
                             {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)})
    checks.append(
        Check("degree-2-coefficient", t11 == expected,
              "T_{1,1}(Z) = (XY - YX)/2", "equal" if t11 == expected else "mismatch")
    )
    for total in range(1, N + 1):
        for m in range(total + 1):
            n = total - m
            report = fa.fa_check_exp_identity(m, n)
            checks.append(
                Check(
                    f"(m,n)=({m},{n})",
                    report.ok,
                    "exact bidegree and product identities",
                    "exact" if report.ok else "mismatch",
                )
            )
    return checks


def _suite_pbw_confluence(config, params, seed):
    rng = random.Random(seed)
    spec = config.algebra
    count = params["count"]
    max_len = params["max_length"]
    failures = 0
    for _ in range(count):
        w1 = random_word(spec, rng, max_len)
        w2 = random_word(spec, rng, max_len)
        direct = pbw_reduce(spec, w1 + w2)
        split = pbw_mul(pbw_reduce(spec, w1), pbw_reduce(spec, w2))
        if direct != split:
            failures += 1
    checks = [
        Check(
            "random-words",
            failures == 0,
            f"{count} word pairs reduce confluently",
            f"{count - failures}/{count} exact",
        )
    ]
    return checks


def _suite_radius(config, params, seed):
    lam = config.functionals[params["functional"]]
    est = radius_estimate(lam)
    checks = []
    if params["expected"] is not None:
        expected = parse_fraction(params["expected"])
        tol = float(params["tolerance"])
        resid = abs(est.value - float(expected)) if not est.is_infinite else float("inf")
        checks.append(
            Check(
                "estimate",
                est.equals_rational(expected) or resid <= tol,
                f"radius estimate = {expected}",
                f"{est.value:.15g}",
                resid,
            )
        )
    else:
        checks.append(
            Check("estimate", True, "computed", f"{est.value:.15g}")
        )
    sym, raw = growth_diagnostics(lam)
    checks.append(
        Check(
            "growth-diagnostics",
            True,
            "partial sums reported (nothing asserted)",
            f"symmetrized {sym[-1]:.6g}, raw {raw[-1]:.6g}",
        )
    )
    return checks


def _recursion_fits(params, config):
    # the recursion at arity n reads beta_(n+1), so the table needs degree n_max + 1
    lam = config.functionals[params["functional"]]
    if params["n_max"] + 1 > lam.max_degree:
        raise ValueError(
            f"n_max: recursion to n={params['n_max']} needs functional degree "
            f"{params['n_max'] + 1}, {params['functional']!r} has {lam.max_degree}"
        )


def _suite_recursion(config, params, seed):
    lam = config.functionals[params["functional"]]
    report = recursion_check(lam, params["n_max"])
    checks = []
    for row in report.rows:
        checks.append(
            Check(
                f"n={row.n}",
                row.ok,
                f"c_n <= ||beta_(n+1)^s|| + n c_(n-1) and action bounds",
                f"c_{row.n} = {row.c_n.to_float():.15g}"
                + ("" if row.ok else " (violated)"),
            )
        )
    return checks


def _suite_positivity(config, params, seed):
    rng = random.Random(seed)
    checks = []
    d_max = params["d_max"]
    power_max = params["power_max"]
    directions = params["directions"]
    degree = max(2 * d_max, 2 * power_max)
    for name in params["representations"]:
        rep = config.representations[name]
        lam = functional_from_rep(rep, degree)
        M = moment_matrix(lam, d_max)
        psd = psd_check(M)
        pivot_note = (
            f"min pivot {format_fraction(min(psd.pivots))}" if psd.pivots else "rank 0"
        )
        checks.append(
            Check(
                f"{name}-moment-psd",
                psd.ok and M.hermitian,
                f"hermitian PSD moment matrix at degree {d_max}",
                f"rank {psd.rank}, {pivot_note}",
            )
        )
        bad = 0
        for _ in range(directions):
            x = random_vector(rep.spec, rng, span=4, denominator=4)
            diag = analytic_diagnostics(lam, x, power_max)
            if not diag.positive_so_far:
                bad += 1
        checks.append(
            Check(
                f"{name}-squares",
                bad == 0,
                f"(-1)^n lam(x^(2n)) >= 0 for n <= {power_max}, {directions} directions",
                f"{directions - bad}/{directions} nonnegative",
            )
        )
    return checks


def _suite_gns(config, params, seed):
    rep = config.representations[params["representation"]]
    d_max = params["d_max"]
    lam = functional_from_rep(rep, 2 * d_max)
    model = gns_build(lam, d_max)
    checks = []
    if params["expected_rank"] is not None:
        checks.append(
            Check(
                "quotient-rank",
                model.quotient_rank == params["expected_rank"],
                f"rank {params['expected_rank']}",
                str(model.quotient_rank),
            )
        )
    same = orbit_gram(rep, d_max) == model.gram.rows
    checks.append(
        Check(
            "orbit-gram",
            same,
            "GNS Gram equals orbit Gram exactly",
            "equal" if same else "mismatch",
        )
    )
    if model.skew_exact is None:
        # degree 0 or a zero quotient: no operators, so skewness holds vacuously
        actual = f"no operators (degree {d_max}, quotient rank {model.quotient_rank})"
    else:
        actual = "exact" if model.skew_exact else f"residual {model.skew_residual:.3e}"
    checks.append(
        Check(
            "skew-symmetry",
            model.skew_exact is not False,
            "exact skewness on the modeled domain",
            actual,
        )
    )
    return checks


def _vector(spec, raw):
    return GVector(spec, [parse_scalar(c) for c in raw])


def _suite_local_hom(config, params, seed):
    rep = config.representations[params["representation"]]
    spec = rep.spec
    x = _vector(spec, params["x"])
    y = _vector(spec, params["y"])
    scales = [parse_fraction(s) for s in params["scales"]]
    min_slope = params["min_slope"]
    if min_slope is None:
        min_slope = params["degree"] + 0.5
    report = local_hom_check(rep, x, y, params["degree"], scales, min_slope=min_slope)
    checks = []
    if report.exact:
        worst = max(report.residuals)
        bound = params["max_residual"]
        ok = report.ok and (bound is None or worst <= bound)
        checks.append(
            Check("order", ok, "defect below noise floor",
                  f"max residual {worst:.3e}", worst)
        )
    else:
        checks.append(
            Check(
                "order",
                report.ok,
                f"fitted slope >= {min_slope}",
                report.slope_text,
            )
        )
    return checks


def _suite_kernel(config, params, seed):
    rep = config.representations[params["representation"]]
    checks = []
    for repetition in range(params["repetitions"]):
        sample = sample_group(rep, params["count"], seed=seed + repetition)
        rep_report = pd_kernel_check(sample, tol=params["tolerance"])
        checks.append(
            Check(
                f"repetition-{repetition}",
                rep_report.ok,
                f"min eigenvalue >= -{params['tolerance']:.1e}",
                f"{rep_report.min_eigenvalue:.3e}",
                rep_report.min_eigenvalue,
            )
        )
    return checks


def _cauchy_fits(params, config):
    # the bound sqrt(C) n! r**-n is a binary64 number only while r**-n is
    try:
        float(params["r"]) ** -params["n_max"]
    except OverflowError:
        raise ValueError(
            f"r: r**-{params['n_max']} overflows binary64 at r = {params['r']!r}"
        ) from None


def _suite_cauchy(config, params, seed):
    rep = config.representations[params["representation"]]
    spec = rep.spec
    if params["x"] is not None:
        x = _vector(spec, params["x"])
    else:
        x = spec.basis_vector(spec.dim - 1)
    checks = []
    report = cauchy_estimate_check(rep, x, r=float(params["r"]), n_max=params["n_max"])
    checks.append(
        Check(
            "shipped-rep",
            report.ok,
            f"||R(x)^n v|| <= sqrt(C) n! r^-n for n <= {params['n_max']}",
            f"C = {report.C:.6g}",
        )
    )
    for k in range(params["random_reps"]):
        rrep = random_skew_rep(params["random_size"], seed + k)
        rreport = cauchy_estimate_check(
            rrep, rrep.spec.basis_vector(0), r=float(params["r"]), n_max=params["n_max"]
        )
        checks.append(
            Check(
                f"random-{k}",
                rreport.ok,
                "factorial bounds hold",
                f"C = {rreport.C:.6g}",
            )
        )
    return checks


_TRUTH_FUNCTIONS = {"gaussian-char": gaussian_char}


def _extension_fits(params, config):
    # a functional-driven run models g = R from the table alone, degree 2d
    if params["representation"]:
        return
    if config.algebra.dim != 1:
        raise ValueError("functional: the table-driven extension needs a one-dimensional algebra")
    lam = config.functionals[params["functional"]]
    for d in params["degrees"]:
        if 2 * d > lam.max_degree:
            raise ValueError(
                f"degrees: degree {d} needs functional degree {2 * d}, "
                f"{params['functional']!r} has {lam.max_degree}"
            )


def _suite_extension(config, params, seed):
    checks = []
    tol = float(params["tolerance"])
    degrees = params["degrees"]
    if params["representation"]:
        rep = config.representations[params["representation"]]
        rng = np.random.default_rng(seed)
        from .group_integration import _quantized_vector

        norm = parse_fraction(params["probe_norm"])
        probes = [
            _quantized_vector(rep.spec, rng, norm) for _ in range(params["probes"])
        ]
        report = extension_demo(rep, degrees, probes)
    else:
        lam = config.functionals[params["functional"]]
        times = [parse_fraction(t) for t in params["times"]]
        report = extension_demo_table(lam, degrees, times, _TRUTH_FUNCTIONS[params["truth"]])
    for d, dev in zip(report.degrees, report.deviations):
        checks.append(
            Check(f"degree-{d}", True, "deviation reported", f"{dev:.6e}", dev)
        )
    checks.append(
        Check(
            "trend",
            report.non_increasing,
            "deviation non-increasing in degree",
            "non-increasing" if report.non_increasing else "increasing",
        )
    )
    checks.append(
        Check(
            "final",
            report.final_deviation <= tol,
            f"final deviation <= {tol:.1e}",
            f"{report.final_deviation:.6e}",
            report.final_deviation,
        )
    )
    return checks


SUITES = {
    "bch-identity": Suite(_suite_bch_identity, {"degree": (6, _DEGREE)}, degree="degree"),
    "pbw-confluence": Suite(_suite_pbw_confluence,
                            {"count": (200, _POSITIVE), "max_length": (5, _POSITIVE_DEGREE)},
                            degree="max_length"),
    "radius": Suite(_suite_radius,
                    {"functional": (None, _FUNCTIONAL), "expected": (None, _POSITIVE_RATIONAL),
                     "tolerance": (1e-9, _TOLERANCE)},
                    requires=(("functional",),)),
    "recursion": Suite(_suite_recursion,
                       {"functional": (None, _FUNCTIONAL), "n_max": (3, _POSITIVE_DEGREE)},
                       requires=(("functional",),), degree="n_max",
                       consistent=_recursion_fits),
    "positivity": Suite(_suite_positivity,
                        {"representations": (None, _list(_exact_representation)),
                         "d_max": (2, _DEGREE), "power_max": (3, _POSITIVE_DEGREE),
                         "directions": (10, _POSITIVE)},
                        requires=(("representations",),), degree="d_max"),
    "gns": Suite(_suite_gns,
                 {"representation": (None, _exact_representation), "d_max": (2, _DEGREE),
                  "expected_rank": (None, _COUNT)},
                 requires=(("representation",),), degree="d_max"),
    "local-hom": Suite(_suite_local_hom,
                       {"representation": (None, _REPRESENTATION),
                        "degree": (4, _POSITIVE_DEGREE),
                        "scales": (["1/5", "1/10", "1/20", "1/40"], _distinct(_POSITIVE_RATIONAL)),
                        "x": (None, _gvector), "y": (None, _gvector),
                        "min_slope": (None, _real(lambda v: True, "a number")),
                        "max_residual": (None, _real(lambda v: v >= 0, "a nonnegative number"))},
                       requires=(("representation", "x", "y"),), degree="degree"),
    "kernel": Suite(_suite_kernel,
                    {"representation": (None, _REPRESENTATION), "count": (20, _POSITIVE),
                     "repetitions": (10, _POSITIVE), "tolerance": (1e-10, _TOLERANCE)},
                    requires=(("representation",),)),
    # n_max is a derivative order rather than a truncation degree, so it gets
    # a looser cap; random_size is capped like a representation's dim_V
    "cauchy": Suite(_suite_cauchy,
                    {"representation": (None, _skew(_REPRESENTATION)), "x": (None, _gvector),
                     "r": (1.0, _real(lambda v: v > 0, "a positive number")),
                     "n_max": (12, _integer(0, 16)), "random_reps": (0, _COUNT),
                     "random_size": (4, _integer(1, 16))},
                    requires=(("representation",),), degree="n_max",
                    consistent=_cauchy_fits),
    "extension": Suite(_suite_extension,
                       {"representation": (None, _skew(_exact_representation)),
                        "functional": (None, _FUNCTIONAL),
                        "truth": (None, _ref("truth function", lambda config: _TRUTH_FUNCTIONS)),
                        "degrees": ([2, 3], _increasing(_POSITIVE_DEGREE)),
                        "probes": (8, _POSITIVE),
                        "probe_norm": ("1/2", _POSITIVE_RATIONAL),
                        "times": (["-1", "-1/2", "0", "1/2", "1"], _list(_rational())),
                        "tolerance": (1e-6, _TOLERANCE)},
                       requires=(("representation",), ("functional", "truth")),
                       consistent=_extension_fits),
}

SUITE_NAMES = tuple(SUITES)


def run_suite(config, name, seed=0, degree=None, tolerance=None):
    """Run one verification suite and return its report.

    A suite the config does not list runs with its defaults.  ``degree`` and
    ``tolerance`` override the suite's knobs and pass the same checks as the
    config's own values.
    """
    if name not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; known suites: {', '.join(SUITE_NAMES)}"
        )
    suite = SUITES[name]
    given = dict(next((s.params for s in config.suites if s.name == name), {}))
    for key, value in ((suite.degree, degree), ("tolerance", tolerance)):
        if value is not None and key in suite.params:
            given[key] = value
    params = _suite_params(name, given, config, f"suite {name!r}")
    start = time.perf_counter()
    try:
        checks = suite.runner(config, params, seed)
    except WorkbenchError:
        raise
    except Exception as exc:
        raise SuiteError(f"suite {name!r} stopped: {type(exc).__name__}: {exc}") from exc
    return Report(name, checks, time.perf_counter() - start)


def run_all(config, seed=0, degree=None, tolerance=None):
    """Run every configured suite, in config order."""
    return [run_suite(config, s.name, seed, degree, tolerance) for s in config.suites]


# ---------------------------------------------------------------------------
# command line front end
# ---------------------------------------------------------------------------


def default_config_path():
    return resources.files("envalg").joinpath("data", "su2.json")


def _load_config(path):
    if path is None:
        text = default_config_path().read_text(encoding="utf-8")
    else:
        with open(path, "rb") as fh:
            text = fh.read()
    return parse_config(text)


def _emit(reports, fmt, out_path):
    buffer = io.StringIO()
    if fmt == "machine":
        render_machine(reports, buffer)
    else:
        render_human(reports, buffer)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(buffer.getvalue())
    else:
        sys.stdout.write(buffer.getvalue())


def _cmd_validate(config, args):
    summary = (
        f"config OK: algebra dim {config.algebra.dim}, "
        f"{len(config.functionals)} functionals, "
        f"{len(config.representations)} representations, "
        f"{len(config.suites)} suites"
    )
    print(summary)
    return 0


def _cmd_dump(config, args):
    target = args.object
    if target == "config":
        sys.stdout.write(serialize_config(config))
        return 0
    kind, slash, name = target.partition("/")
    if target == "lie_algebra":
        doc = _algebra_to_dict(config.algebra)
    elif target == "suites":
        doc = _config_to_dict(config).get("suites", [])
    elif slash and kind == "functional":
        if name not in config.functionals:
            raise ConfigError(f"unknown functional {name!r}")
        doc = _functional_to_dict(config.functionals[name])
    elif slash and kind == "representation":
        if name not in config.representations:
            raise ConfigError(f"unknown representation {name!r}")
        doc = _representation_to_dict(config.representations[name])
    else:
        raise ConfigError(
            f"unknown dump target {target!r} "
            "(use config, lie_algebra, suites, functional/<name>, representation/<name>)"
        )
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _seed(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="envalg",
        description="Exact enveloping-algebra workbench: validation suites and reports.",
    )
    parser.add_argument("--config", help="path to a workbench config (JSON)")
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    parser.add_argument("--out", help="write the report to a file instead of stdout")
    parser.add_argument("--seed", type=_seed, default=0,
                        help="non-negative seed for randomized suites (default 0)")
    parser.add_argument("--degree", type=int, help="override the suite degree knob")
    parser.add_argument("--tolerance", type=float,
                        help="override the suite tolerance knob")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", help="parse and validate the configuration")
    run = sub.add_parser("run", help="run a single suite")
    run.add_argument("suite", help=f"one of: {', '.join(SUITE_NAMES)}")
    sub.add_parser("run-all", help="run every configured suite")
    dump = sub.add_parser("dump", help="serialize a configured object")
    dump.add_argument("object",
                      help="config | lie_algebra | suites | functional/<name> | representation/<name>")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.out and args.command in ("run", "run-all"):
        # fail before any suite runs; append mode leaves an existing report intact
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return 2
    try:
        if args.command == "validate":
            return _cmd_validate(config, args)
        if args.command == "dump":
            return _cmd_dump(config, args)
        if args.command == "run":
            reports = [
                run_suite(config, args.suite, args.seed, args.degree, args.tolerance)
            ]
        else:  # run-all
            reports = run_all(config, args.seed, args.degree, args.tolerance)
    except UnknownSuiteError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SuiteError as exc:
        print(f"suite error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, WorkbenchError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(reports, args.format, args.out)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(r.ok for r in reports) else 1


def main_entry():
    """The ``envalg`` console script and ``python -m envalg``.

    It assumes it owns the process, and takes two process-wide settings
    before :func:`main` runs.  It freezes the start-up heap
    (``gc.freeze``): numpy's and envalg's objects live until exit, so no
    collection scans them again, during the suites or at shutdown.  And it
    gives numpy's and SciPy's bundled OpenBLAS pools one thread each.
    In-process callers use :func:`main`, which changes neither.
    """
    gc.freeze()
    _single_blas_thread()
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main_entry())
