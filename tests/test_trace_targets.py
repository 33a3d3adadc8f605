"""The traced benchmark run wraps public envalg names; they must stay put."""

import importlib
import importlib.util
from pathlib import Path

from envalg import cli
from envalg.catalog import delta_functional, so3
from envalg.functionals import FunctionalTable
from envalg.gns import PsdReport, moment_matrix, psd_check

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_like_install_needs():
    tracing = _tracing()
    for mod_name, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(mod_name)
        if "." in attr:
            # Tracer.install patches the method in the class's own __dict__
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), f"{mod_name}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{mod_name}.{attr}"


def test_traced_suites_are_the_cli_suites():
    assert _tracing().SUITES == cli.SUITE_NAMES


def test_names_read_outside_targets_stay():
    # perfbench reads these directly: the `.exact` flags, psd_check's `tol`
    # keyword and the moment matrix's rows and size
    lam = delta_functional(so3(), 2)
    M = moment_matrix(lam, 1)
    report = psd_check(M, tol=1e-8)
    assert lam.exact is FunctionalTable.exact is True
    assert report.exact is PsdReport.exact is True
    assert M.size == len(M.rows) == 4
    assert report.ok and report.size == M.size
