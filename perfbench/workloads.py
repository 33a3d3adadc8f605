"""The four benchmark workloads, driven through public envalg functions only.

Each workload builds its inputs from a seed in ``__init__``.  One
closed-loop iteration calls every callable in its ``steps`` in order; each
step takes the tracer (or None) and returns the checks it made as
``(name, verdict, digest)`` triples.  ``digest`` is the sha256 of
the canonical text of the exact results (of the verdict alone, on the float
side; of the machine report, for the CLI); it is compared with the
reference recorded when the benchmark was added (reference.json).

Every call goes through a module or class attribute (``gns.moment_matrix``,
not a name imported once), so the traced run can wrap it.  ``import envalg``
happens in ``run.py`` before any workload is built.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Inputs are drawn from seed % POOL; reference.json holds every pool seed.
POOL = 32
CHILD_TIMEOUT_S = 120


def canon(obj):
    """Canonical text of exact results: Fractions as p/q, recursively."""
    if isinstance(obj, bool) or obj is None:
        return str(obj)
    if isinstance(obj, (int, str)):
        return str(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (tuple, list)):
        return "[" + ",".join(canon(x) for x in obj) + "]"
    if hasattr(obj, "re") and hasattr(obj, "im"):          # Scalar
        return f"({canon(obj.re)},{canon(obj.im)})"
    if hasattr(obj, "squared") and hasattr(obj, "degree"):  # RootValue
        return f"root({canon(obj.squared)},{obj.degree})"
    if hasattr(obj, "squared"):                            # SqrtFraction
        return f"sqrt({canon(obj.squared)})"
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj):
    return hashlib.sha256(canon(obj).encode("utf-8")).hexdigest()


class _InProcess:
    """A workload that runs in the benchmark's own process."""

    def peak_rss_mib(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class WordTables(_InProcess):
    """Cold-cache dim**n word tables: radius, insertion recursion, exp identity."""

    name = "word-tables"

    def __init__(self, seed, small=False):
        from envalg import catalog, sampling

        self.radius_n = 4 if small else 7
        self.recursion_n = 2 if small else 5
        self.exp_total = 3 if small else 7
        rng = random.Random(seed % POOL)
        table = sampling.random_functional(catalog.so3(), self.recursion_n + 1, rng)
        self.random_values = dict(table.values)
        self.steps = (self.radius, self.recursion, self.exp_identity)

    # each step builds fresh specs: the per-spec normal-form caches start cold

    def radius(self, tracer=None):
        from envalg import catalog, functionals, gns

        lam = gns.functional_from_rep(catalog.spin_one(), self.radius_n)
        est = functionals.radius_estimate(lam)
        return [("radius-spin1", not est.is_infinite, digest(est.per_degree))]

    def recursion(self, tracer=None):
        from envalg import catalog, functionals

        table = functionals.FunctionalTable(
            catalog.so3(), self.recursion_n + 1, self.random_values
        )
        rep = functionals.recursion_check(table, self.recursion_n)
        rows = [(r.n, r.c_n, r.beta_next_norm, r.c_prev, r.inequality_ok, r.invariance_ok)
                for r in rep.rows]
        return [("recursion-so3", rep.ok, digest(rows))]

    def exp_identity(self, tracer=None):
        from envalg import free_algebra

        checks = []
        for total in range(1, self.exp_total + 1):
            for m in range(total + 1):
                r = free_algebra.fa_check_exp_identity(m, total - m)
                checks.append((f"exp-identity-{m}-{total - m}", r.ok,
                               digest((r.coefficient_identity_ok, r.product_identity_ok))))
        return checks

class MomentsGns(_InProcess):
    """Moment matrices, exact LDL*, GNS models and orbit Grams; one float GNS."""

    name = "moments-gns"

    def __init__(self, seed, small=False):
        from envalg import catalog, sampling

        self.d = 2 if small else 4
        self.power = 2 if small else 4
        self.skew_size = 4 if small else 8
        s = seed % POOL
        rng = random.Random(s)
        count = 2 if small else 5
        self.directions = [
            sampling.random_vector(catalog.so3(), rng, span=4, denominator=4).coeffs
            for _ in range(count)
        ]
        self.skew_seed = 1000 + s
        self.steps = (self.spin_one, self.spin_three_half, self.float_branch)

    def spin_one(self, tracer=None):
        from envalg import catalog

        return self._exact("spin1", catalog.spin_one())

    def spin_three_half(self, tracer=None):
        from envalg import catalog

        return self._exact("spin3half", catalog.spin_three_half())

    def _exact(self, label, rep):
        from envalg import gns, lie_structure

        checks = []
        lam = gns.functional_from_rep(rep, 2 * self.d)
        M = gns.moment_matrix(lam, self.d)
        psd = gns.psd_check(M)
        checks.append((f"psd-{label}", psd.ok, digest((M.size, psd.rank, psd.pivots))))
        model = gns.gns_build(lam, self.d)
        checks.append((f"gns-{label}", bool(model.skew_exact),
                       digest((model.quotient_rank, model.sub_rank,
                               model.pivot_monomials, model.basis_norms2))))
        gram = gns.orbit_gram(rep, self.d)
        checks.append((f"orbit-{label}", gram == M.rows, digest(gram)))
        for k, coeffs in enumerate(self.directions):
            x = lie_structure.GVector(rep.spec, coeffs)
            diag = gns.analytic_diagnostics(lam, x, self.power)
            checks.append((f"analytic-{label}-{k}", diag.positive_so_far,
                           digest((diag.s_squared, diag.functional_estimate.per_degree))))
        return checks

    def float_branch(self, tracer=None):
        """A random skew-hermitian rep of the abelian line through the float GNS path."""
        from envalg import gns, sampling

        rep = sampling.random_skew_rep(self.skew_size, self.skew_seed)
        lam = gns.functional_from_rep(rep, 2 * self.d)
        M = gns.moment_matrix(lam, self.d)
        psd = gns.psd_check(M, tol=1e-8)
        model = gns.gns_build(lam, self.d)
        return [("float-psd", psd.ok, digest((M.size, psd.ok))),
                ("float-gns", bool(model.skew_exact),
                 digest((model.quotient_rank, bool(model.skew_exact))))]

_HOM_X = ("1/2", "0", "1/3")
_HOM_Y = ("0", "2/5", "-1/4")
_HOM_SCALES = ("1/5", "1/10", "1/20", "1/40")


class GroupFloat(_InProcess):
    """binary64 side: group samples, kernels, Cauchy bounds, local group law."""

    name = "group-float"

    def __init__(self, seed, small=False):
        s = seed % POOL
        self.count = 10 if small else 60
        self.n_max = 8 if small else 16
        self.sample_seeds = [1000 * s + i for i in range(3)]
        sizes = range(4, 7) if small else range(4, 16)
        self.skew = [(size, 1000 * s + 100 + size) for size in sizes]
        self.steps = (self.float_checks,)

    def float_checks(self, tracer=None):
        from envalg import catalog, group_integration as gi, lie_structure, sampling
        from envalg.scalars import Scalar

        checks = []
        reps = (("spin-half", catalog.spin_half), ("spin1", catalog.spin_one),
                ("spin3half", catalog.spin_three_half))
        for (label, make), sample_seed in zip(reps, self.sample_seeds):
            rep = make()
            sample = gi.sample_group(rep, self.count, seed=sample_seed)
            kernel = gi.pd_kernel_check(sample)
            checks.append((f"kernel-{label}", kernel.ok, digest(kernel.ok)))
            x = rep.spec.basis_vector(rep.spec.dim - 1)
            report = gi.cauchy_estimate_check(rep, x, n_max=self.n_max)
            checks.append((f"cauchy-{label}", report.ok, digest(report.ok)))
        for size, skew_seed in self.skew:
            rep = sampling.random_skew_rep(size, skew_seed)
            report = gi.cauchy_estimate_check(rep, rep.spec.basis_vector(0), n_max=self.n_max)
            checks.append((f"cauchy-random-{size}", report.ok, digest(report.ok)))

        rep = catalog.spin_half()
        x = lie_structure.GVector(rep.spec, [Scalar(Fraction(c)) for c in _HOM_X])
        y = lie_structure.GVector(rep.spec, [Scalar(Fraction(c)) for c in _HOM_Y])
        hom = gi.local_hom_check(rep, x, y, 4, [Fraction(s) for s in _HOM_SCALES],
                                 min_slope=4.5)
        checks.append(("local-hom-spin-half", hom.ok, digest(hom.ok)))
        return checks

# the installed console script runs exactly this
_CLI_STUB = "import sys; from envalg.cli import main_entry; sys.exit(main_entry())"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measured_child(argv):
    """Run a child interpreter; return (exit code, stdout bytes, peak RSS in MiB).

    The child is reaped with ``wait4`` so its own peak RSS is known; stderr
    passes through.  A child still running after CHILD_TIMEOUT_S is killed.
    """
    with subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


class ShippedCli:
    """``envalg --format machine run-all`` on both shipped configs, fresh interpreters."""

    name = "shipped-cli"

    def __init__(self, seed, small=False):
        data = SRC / "envalg" / "data"
        common = ["--format", "machine", "--seed", str(seed % POOL)]
        runs = [("gaussian", common + ["--config", str(data / "gaussian.json"), "run-all"])]
        if not small:
            # su2 is the default config, as a user runs it
            runs.insert(0, ("su2", common + ["run-all"]))
        self.steps = tuple(functools.partial(self._run, label, args) for label, args in runs)
        self.peak = 0.0

    def _run(self, label, args, tracer):
        if tracer is None:
            code, report, rss = measured_child([sys.executable, "-c", _CLI_STUB] + args)
        else:
            code, out, rss = measured_child(
                [sys.executable, str(HERE / "trace_cli.py")] + args)
            doc = json.loads(out)
            code, report = doc["exit"], doc["report"].encode("utf-8")
            tracer.merge(doc["spans"], doc["counters"])
        self.peak = max(self.peak, rss)
        return [(f"report-{label}", code == 0, hashlib.sha256(report).hexdigest())]

    def peak_rss_mib(self):
        return self.peak


WORKLOADS = {w.name: w for w in (ShippedCli, WordTables, MomentsGns, GroupFloat)}
