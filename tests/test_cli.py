"""Config parsing, serialization round trips, suite dispatch and exit codes."""

import builtins
import errno
import hashlib
import io
import json
import os
import pickle
import re
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import envalg
from envalg import cli, errors
from envalg.cli import (
    SUITE_NAMES,
    SUITES,
    Check,
    Report,
    _format_complex,
    _parse_complex,
    _run_all_on_cpus,
    default_config_path,
    main,
    parse_config,
    render_machine,
    run_all,
    run_suite,
    serialize_config,
)
from envalg.errors import ConfigError, SuiteError


MINIMAL = json.dumps(
    {
        "lie_algebra": {
            "dim": 1,
            "basis_names": ["x"],
            "structure": {},
            "weights": ["1"],
        },
        "functionals": {
            "delta": {"max_degree": 4, "values": {"0": "1"}},
        },
        "suites": [{"name": "radius", "functional": "delta"}],
    }
)


def capture(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(args)
    return rc, buf.getvalue()


def shipped(name):
    return json.loads(default_config_path().parent.joinpath(name).read_text(encoding="utf-8"))


class TestParsing:
    def test_minimal_config(self):
        config = parse_config(MINIMAL)
        assert config.algebra.dim == 1
        assert "delta" in config.functionals
        assert config.suites[0].name == "radius"

    def test_unknown_key_is_named(self):
        bad = MINIMAL.replace('"weights"', '"weigths"')
        with pytest.raises(ConfigError, match="weigths"):
            parse_config(bad)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
            parse_config(MINIMAL[:-10])

    def test_round_trip_identity(self):
        config = parse_config(MINIMAL)
        text = serialize_config(config)
        again = parse_config(text)
        assert config == again
        assert serialize_config(again) == text

    def test_float_representation_round_trips_bit_for_bit(self, tmp_path):
        # "-0.5j" reads as complex(-0.0, -0.5): the dump keeps the signed zero
        doc = shipped("su2.json")
        doc["representations"]["spin_half_float"] = {
            "dim_V": 2, "mode": "float", "skew_hermitian": True,
            "generators": [[[0, "-0.5j"], ["-0.5j", 0]], [[0, -0.5], [0.5, 0]],
                           [["-0.5j", -0.0], [0, "0.5j"]]],
            "cyclic_vector": [0.6, "-0.0+0.8j"],
        }
        config = parse_config(json.dumps(doc))
        again = parse_config(serialize_config(config))
        assert again == config
        rep = config.representations["spin_half_float"]
        back = again.representations["spin_half_float"]
        assert not back.exact
        for i in range(3):
            assert back.generator_array(i).tobytes() == rep.generator_array(i).tobytes()
        assert back.cyclic_array().tobytes() == rep.cyclic_array().tobytes()
        # equality is bitwise: +0.0 in place of -0.0 is another config
        doc["representations"]["spin_half_float"]["cyclic_vector"] = [0.6, "0.8j"]
        assert parse_config(json.dumps(doc)) != config
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for target in ("config", "suites", "representation/spin_half_float"):
            rc, _ = capture(["--config", str(path), "dump", target])
            assert rc == 0

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_float_entry_text_reads_back_bit_for_bit(self, re, im):
        z = _parse_complex(json.loads(json.dumps(_format_complex(complex(re, im)))))
        assert struct.pack("dd", z.real, z.imag) == struct.pack("dd", re, im)

    def test_jacobi_violation_reported_with_witness(self):
        doc = json.loads(MINIMAL)
        doc["lie_algebra"] = {
            "dim": 3,
            "basis_names": ["a", "b", "c"],
            "structure": {"0,1": {"2": "1"}, "0,2": {"0": "1"}},
            "weights": ["1", "1", "1"],
        }
        doc.pop("functionals")
        doc.pop("suites")
        with pytest.raises(ConfigError, match=r"Jacobi.*\(0, 1, 2\)"):
            parse_config(json.dumps(doc))

    def test_submultiplicativity_guard(self):
        doc = json.loads(MINIMAL)
        doc["lie_algebra"] = {
            "dim": 3,
            "basis_names": ["p", "q", "z"],
            "structure": {"0,1": {"2": "1"}},
            "weights": ["1", "1", "3"],
        }
        doc.pop("functionals")
        doc.pop("suites")
        with pytest.raises(ConfigError, match="submultiplicative"):
            parse_config(json.dumps(doc))

    def test_unresolved_reference(self):
        doc = json.loads(MINIMAL)
        doc["suites"] = [{"name": "radius", "functional": "nope"}]
        with pytest.raises(ConfigError, match="unknown functional 'nope'"):
            parse_config(json.dumps(doc))

    def test_out_of_range_degree(self):
        doc = json.loads(MINIMAL)
        doc["suites"] = [{"name": "bch-identity", "degree": 11}]
        with pytest.raises(ConfigError, match="degree"):
            parse_config(json.dumps(doc))

    def test_unknown_suite_parameter(self):
        doc = json.loads(MINIMAL)
        doc["suites"] = [{"name": "radius", "functional": "delta", "fast": True}]
        with pytest.raises(ConfigError, match="fast"):
            parse_config(json.dumps(doc))

    def test_shipped_configs_validate(self):
        for name in ("su2.json", "gaussian.json"):
            path = default_config_path().parent.joinpath(name)
            config = parse_config(path.read_text(encoding="utf-8"))
            assert config.suites


class TestSuiteDispatch:
    def test_radius_suite_on_minimal(self):
        config = parse_config(MINIMAL)
        report = run_suite(config, "radius")
        assert report.ok
        assert report.checks[0].identifier == "estimate"

    def test_unknown_suite(self):
        from envalg.errors import UnknownSuiteError

        config = parse_config(MINIMAL)
        with pytest.raises(UnknownSuiteError):
            run_suite(config, "nope")

    def test_known_but_unconfigured_suite_needs_params(self):
        config = parse_config(MINIMAL)
        with pytest.raises(ConfigError, match="recursion"):
            run_suite(config, "recursion")

    def test_run_all_order_is_config_order(self):
        config = parse_config(MINIMAL)
        reports = run_all(config)
        assert [r.suite for r in reports] == ["radius"]


class TestCommandLine:
    def test_validate_default_config(self):
        rc, out = capture(["validate"])
        assert rc == 0
        assert "config OK" in out

    def test_run_single_suite(self):
        rc, out = capture(["run", "gns"])
        assert rc == 0
        assert "suite gns: PASS" in out

    def test_degree_override(self):
        rc, out = capture(["--degree", "3", "run", "bch-identity"])
        assert rc == 0
        assert "(m,n)=(3,0)" in out and "(m,n)=(4,0)" not in out

    def test_unknown_suite_exit_code(self):
        import sys

        err = io.StringIO()
        old = sys.stderr
        sys.stderr = err
        try:
            rc, _ = capture(["run", "bogus"])
        finally:
            sys.stderr = old
        assert rc == 2
        assert "unknown suite" in err.getvalue()

    def test_machine_format_schema(self):
        rc, out = capture(["--format", "machine", "run", "gns"])
        assert rc == 0
        lines = [json.loads(line) for line in out.splitlines()]
        kinds = [rec["kind"] for rec in lines]
        assert kinds.count("suite") == 1 and kinds[-1] == "summary"
        for rec in lines:
            if rec["kind"] == "check":
                assert set(rec) == {
                    "kind", "suite", "id", "status", "expected", "actual", "residual",
                }

    def test_machine_format_deterministic(self):
        rc1, out1 = capture(["--format", "machine", "--seed", "1", "run", "kernel"])
        rc2, out2 = capture(["--format", "machine", "--seed", "1", "run", "kernel"])
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_seed_changes_randomized_suite(self):
        _, out1 = capture(["--format", "machine", "--seed", "1", "run", "kernel"])
        _, out2 = capture(["--format", "machine", "--seed", "2", "run", "kernel"])
        assert out1 != out2

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.txt"
        rc, out = capture(["--out", str(target), "run", "gns"])
        assert rc == 0
        assert out == ""
        assert "suite gns: PASS" in target.read_text()

    @pytest.mark.parametrize("command", [["run", "gns"], ["run-all"]])
    def test_out_unwritable_fails_before_running(self, tmp_path, capsys, monkeypatch, command):
        from envalg import cli

        def forbidden(*args, **kwargs):
            raise AssertionError("a suite ran before the output path was checked")

        monkeypatch.setattr(cli, "run_suite", forbidden)
        monkeypatch.setattr(cli, "run_all", forbidden)
        target = tmp_path / "missing" / "report.txt"
        rc = main(["--out", str(target)] + command)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("output error: ") and str(target) in err
        assert "Traceback" not in err
        assert not target.parent.exists()

    def test_out_directory_is_an_output_error(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "run", "gns"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("output error: ")

    def test_out_existing_report_kept_on_usage_error(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        target.write_text("previous report\n")
        assert main(["--out", str(target), "run", "no-such-suite"]) == 2
        assert target.read_text() == "previous report\n"

    def test_dump_targets(self):
        rc, out = capture(["dump", "lie_algebra"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["dim"] == 3
        rc, out = capture(["dump", "functional/spin_half"])
        assert rc == 0
        assert json.loads(out)["max_degree"] == 6
        rc, out = capture(["dump", "representation/spin_one"])
        assert rc == 0
        assert json.loads(out)["dim_V"] == 3
        rc, _ = capture(["dump", "bogus"])
        assert rc == 2

    def test_dump_config_round_trip(self):
        rc, out = capture(["dump", "config"])
        assert rc == 0
        config = parse_config(out)
        assert serialize_config(config) == out

    def test_missing_config_file(self):
        import sys

        err = io.StringIO()
        old = sys.stderr
        sys.stderr = err
        try:
            rc, _ = capture(["--config", "/nonexistent.json", "validate"])
        finally:
            sys.stderr = old
        assert rc == 2

    def test_module_entry_point_runs(self):
        env = dict(os.environ, PYTHONPATH=str(Path(envalg.__file__).parents[1]))
        path = str(default_config_path().parent.joinpath("gaussian.json"))
        proc = subprocess.run(
            [sys.executable, "-m", "envalg", "--config", path, "validate"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("config OK")
        assert "RuntimeWarning" not in proc.stderr

    def test_run_all_repeats_identically(self):
        for name in ("su2.json", "gaussian.json"):
            path = str(default_config_path().parent.joinpath(name))
            argv = ["--config", path, "--format", "machine", "run-all"]
            rc1, out1 = capture(argv)
            rc2, out2 = capture(argv)
            assert rc1 == rc2 == 0
            assert out1 == out2


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


@pytest.mark.parametrize("label, config", [("su2", None), ("gaussian", "gaussian.json")])
def test_machine_report_matches_recorded_digest(label, config):
    # the benchmark's recorded sha256 of the seed-0 machine report; a list
    # holds one digest per pool seed
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))["full"]["shipped-cli"]
    want = want[f"report-{label}"]
    if isinstance(want, list):
        want = want[0]
    argv = [sys.executable, "-m", "envalg", "--format", "machine", "--seed", "0"]
    if config is not None:
        argv += ["--config", str(default_config_path().parent.joinpath(config))]
    env = dict(os.environ, PYTHONPATH=str(Path(envalg.__file__).parents[1]))
    proc = subprocess.run(argv + ["run-all"], capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == want


class TestRecords:
    """Config and report records are named tuples: read-only, replaceable, picklable."""

    def test_fields_are_read_only(self):
        config = parse_config(MINIMAL)
        report = run_suite(config, "radius")
        for record, name in ((config, "suites"), (config.suites[0], "params"),
                             (report, "duration"), (report.checks[0], "ok"), (SUITES["gns"], "runner")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_replace_gives_a_new_record(self):
        check = Check("id", True, "expected", "actual")
        failed = check._replace(ok=False, residual=0.5)
        assert (check.status, failed.status) == ("PASS", "FAIL")
        assert failed == ("id", False, "expected", "actual", 0.5)
        assert Check._fields == ("identifier", "ok", "expected", "actual", "residual")

    def test_reports_survive_a_pickle_round_trip(self):
        # the fan-out of ``run-all`` sends each report from its worker as a pickle
        report = run_suite(parse_config(json.dumps(shipped("su2.json"))), "gns")
        again = pickle.loads(pickle.dumps(report))
        assert again == report and type(again) is Report
        assert {type(c) for c in again.checks} == {Check} and again.ok

    def test_configs_compare_by_their_canonical_form(self):
        config, again = parse_config(MINIMAL), parse_config(MINIMAL)
        assert config == again and not config != again
        other = parse_config(MINIMAL.replace('"1"}}', '"2"}}'))
        assert config != other and not config == other


def _float_mode_su2():
    """su2 with two float reps, run by local-hom, kernel and cauchy.

    ``spin_half_float`` is spin one-half with signed zeros; ``spin_half_turned``
    is spin one-half turned by the rotation (0.6, 0.8) in binary64, so its
    law holds only to rounding, plus a skew defect of 1e-13 on one diagonal
    entry.  Both pass the group side's 1e-10 test.
    """
    doc = shipped("su2.json")
    doc["representations"]["spin_half_float"] = {
        "dim_V": 2, "mode": "float", "skew_hermitian": True,
        "generators": [[[0, "-0.5j"], ["-0.5j", 0]], [[0, -0.5], [0.5, 0]],
                       [["-0.5j", -0.0], [0, "0.5j"]]],
        "cyclic_vector": [0.6, "-0.0+0.8j"],
    }
    doc["representations"]["spin_half_turned"] = {
        "dim_V": 2, "mode": "float", "skew_hermitian": True,
        "generators": [[["1e-13+0.48j", "0.14000000000000007j"],
                        ["0.14000000000000007j", "-0.48j"]],
                       [[0, -0.5], [0.5, 0]],
                       [["0.14000000000000007j", "-0.48j"],
                        ["-0.48j", "-0.14000000000000007j"]]],
        "cyclic_vector": [0.6, 0.8],
    }
    for suite, rep in (("local-hom", "spin_half_turned"), ("kernel", "spin_half_float"),
                       ("cauchy", "spin_half_turned")):
        next(b for b in doc["suites"] if b["name"] == suite)["representation"] = rep
    return doc


# sha256 of each output, recorded before float reps were stored as arrays
FLOAT_MODE_OUTPUTS = {
    "dump-float": (["dump", "representation/spin_half_float"],
        "a42d72cd92ffd4976eabcfcaad21ac9a9753562caed5b8b7fc34fd1cc99b1798"),
    "dump-turned": (["dump", "representation/spin_half_turned"],
        "2a05404c96a2e491d6d7889ab630add3ad4c7f12230c7315385440e5ca953bc3"),
    "dump-config": (["dump", "config"],
        "83496021305d590200c620d198a3859eb3e078daa5542e0d57198867025eebb4"),
    "machine-run-all": (["--format", "machine", "run-all"],
        "b97f1d47e8b0196d1c6b7b5f0d5b24d9cf2d7208d06c0622fabe1713abcc0d27"),
}


@pytest.mark.parametrize("name", sorted(FLOAT_MODE_OUTPUTS))
def test_float_mode_outputs_are_byte_identical(tmp_path, name):
    argv, want = FLOAT_MODE_OUTPUTS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_float_mode_su2()), encoding="utf-8")
    rc, out = capture(["--config", str(path)] + argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == want


def _set(suite, key, value=None, drop=False):
    def patch(doc):
        block = next(b for b in doc["suites"] if b["name"] == suite)
        if drop:
            del block[key]
        else:
            block[key] = value

    return patch


def _put(*path, value):
    def patch(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return patch


class _Pairs(dict):
    """An object that ``json.dumps`` writes as its ``pairs``, repeated keys included."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs

    def items(self):
        return self.pairs


def _repeat(*path, value=None):
    """Give the last key of ``path`` once more, after the first, with ``value``
    (by default its own value again)."""
    def patch(doc):
        parent = doc
        for key in path[:-2]:
            parent = parent[key]
        block = parent[path[-2]]
        again = block[path[-1]] if value is None else value
        parent[path[-2]] = _Pairs(list(block.items()) + [(path[-1], again)])

    return patch


def _bad_target(doc):
    doc["lie_algebra"]["structure"]["0,1"] = {"x": "1"}


def _table_extension_on_su2(doc):
    doc["suites"][9] = {"name": "extension", "functional": "spin_half",
                        "truth": "gaussian-char"}


def _kernel_twice(doc):
    doc["suites"].append({"name": "kernel", "representation": "spin_one", "repetitions": 2})


def _float_rep_in(suite):
    """A float-mode copy of spin_one, named spin_one_float, used by ``suite``."""
    def patch(doc):
        doc["representations"]["spin_one_float"] = dict(doc["representations"]["spin_one"],
                                                        mode="float")
        block = next(b for b in doc["suites"] if b["name"] == suite)
        if suite == "positivity":
            block["representations"] = block["representations"] + ["spin_one_float"]
        else:
            block["representation"] = "spin_one_float"

    return patch


def _float_rep(key, index, value):
    """A float-mode copy of spin_one, named spin_one_float, with one entry replaced."""
    def patch(doc):
        block = json.loads(json.dumps(doc["representations"]["spin_one"]))
        block["mode"] = "float"
        target = block[key]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] = value
        doc["representations"]["spin_one_float"] = block

    return patch


def _heisenberg_rep_in(suite):
    """The Heisenberg algebra with its upper-triangular rep 'h', which is not
    skew-hermitian, as the representation of a lone ``suite``."""
    def patch(doc):
        unit = [["0"] * 3 for _ in range(3)]
        gens = [json.loads(json.dumps(unit)) for _ in range(3)]
        for gen, (i, j) in zip(gens, [(0, 1), (1, 2), (0, 2)]):
            gen[i][j] = "1"
        doc.clear()
        doc.update({
            "lie_algebra": {"dim": 3, "basis_names": ["p", "q", "z"],
                            "structure": {"0,1": {"2": "1"}}, "weights": ["1", "1", "1"]},
            "representations": {"h": {"dim_V": 3, "generators": gens,
                                      "cyclic_vector": ["1", "0", "0"],
                                      "skew_hermitian": False}},
            "suites": [{"name": suite, "representation": "h"}],
        })

    return patch


def _trivial_rep_with_row(row):
    """A zero rep 'trivial' on C^2 whose first generator's second row is ``row``."""
    def patch(doc):
        zero = [["0", "0"], ["0", "0"]]
        doc["representations"]["trivial"] = {
            "dim_V": 2, "generators": [[["0", "0"], row], zero, zero],
            "cyclic_vector": ["1", "0"], "skew_hermitian": True,
        }

    return patch


def _float_rep_beyond_binary64(doc):
    """A float rep 'big' on C^2 whose bracket residual squares beyond binary64."""
    zero = [[0, 0], [0, 0]]
    doc["representations"]["big"] = {
        "dim_V": 2, "mode": "float", "skew_hermitian": False,
        "generators": [[[1e300, 0], [0, 0]], [[0, 1e300], [0, 0]], zero],
        "cyclic_vector": [1, 0],
    }


def _rename_target(old, new):
    def patch(doc):
        row = doc["lie_algebra"]["structure"]["0,1"]
        row[new] = row.pop(old)

    return patch


# (config, patch, arguments, what stderr must name)
MALFORMED = [
    pytest.param("su2.json", _set("pbw-confluence", "count", "many"), ["validate"],
                 ("suites[1]", "count"), id="count-str"),
    pytest.param("su2.json", _set("kernel", "repetitions", "3"), ["validate"],
                 ("suites[7]", "repetitions"), id="repetitions-str"),
    pytest.param("su2.json", _set("bch-identity", "degree", True), ["validate"],
                 ("suites[0]", "degree"), id="degree-bool"),
    pytest.param("su2.json", _set("kernel", "tolerance", "abc"), ["validate"],
                 ("suites[7]", "tolerance"), id="tolerance-str"),
    pytest.param("su2.json", _set("cauchy", "r", "big"), ["validate"],
                 ("suites[8]", "r:"), id="r-str"),
    pytest.param("su2.json", _set("local-hom", "scales", ["zz"]), ["validate"],
                 ("suites[6]", "scales"), id="scales-str"),
    pytest.param("su2.json", _set("local-hom", "x", 5), ["validate"],
                 ("suites[6]", "x:"), id="x-int"),
    pytest.param("su2.json", _set("gns", "expected_rank", "2"), ["validate"],
                 ("suites[5]", "expected_rank"), id="expected-rank-str"),
    pytest.param("su2.json", _set("positivity", "representations", "spin_half"),
                 ["validate"], ("suites[4]", "representations"), id="representations-str"),
    pytest.param("gaussian.json", _set("extension", "truth", "nope"), ["validate"],
                 ("suites[2]", "truth"), id="truth-unknown"),
    pytest.param("su2.json", _set("gns", "representation", drop=True), ["validate"],
                 ("suites[5]", "representation"), id="representation-missing"),
    pytest.param("su2.json", None, ["--degree", "-1", "run", "gns"],
                 ("gns", "d_max"), id="degree-override-gns"),
    pytest.param("su2.json", None, ["--degree", "-2", "run", "cauchy"],
                 ("cauchy", "n_max"), id="degree-override-cauchy"),
    pytest.param("su2.json", None, ["--tolerance", "5", "run", "kernel"],
                 ("kernel", "tolerance"), id="tolerance-override"),
    pytest.param("su2.json", _bad_target, ["validate"],
                 ("'0,1'",), id="structure-target"),
    pytest.param("gaussian.json", _set("extension", "degrees", [10]), ["validate"],
                 ("suites[2] (extension)", "degrees"), id="extension-degree-beyond-table"),
    pytest.param("su2.json", _table_extension_on_su2, ["validate"],
                 ("suites[9] (extension)", "functional"), id="extension-table-not-1d"),
    pytest.param("su2.json", _kernel_twice, ["validate"],
                 ("suites[10] (kernel)", "name"), id="suite-listed-twice"),
    pytest.param("su2.json", _float_rep_in("positivity"), ["run-all"],
                 ("suites[4] (positivity)", "representations", "'spin_one_float'"),
                 id="positivity-float-representation"),
    pytest.param("su2.json", _float_rep_in("gns"), ["run-all"],
                 ("suites[5] (gns)", "representation", "'spin_one_float'"),
                 id="gns-float-representation"),
    pytest.param("su2.json", _float_rep_in("extension"), ["run-all"],
                 ("suites[9] (extension)", "representation", "'spin_one_float'"),
                 id="extension-float-representation"),
    pytest.param("su2.json", _set("recursion", "n_max", 6), ["validate"],
                 ("suites[3] (recursion)", "n_max"), id="recursion-beyond-table"),
    pytest.param("su2.json", None, ["--degree", "6", "run", "recursion"],
                 ("recursion", "n_max"), id="degree-override-recursion"),
    pytest.param("su2.json", _put("lie_algebra", "dim", value=True), ["validate"],
                 ("lie_algebra.dim",), id="dim-bool"),
    pytest.param("su2.json", _put("lie_algebra", "basis_names", value="xyz"), ["validate"],
                 ("lie_algebra.basis_names",), id="basis-names-str"),
    pytest.param("su2.json", _put("lie_algebra", "weights", value="111"), ["validate"],
                 ("lie_algebra.weights",), id="weights-str"),
    pytest.param("su2.json", _put("functionals", "spin_half", "max_degree", value=True),
                 ["validate"], ("functionals.spin_half.max_degree",), id="max-degree-bool"),
    pytest.param("su2.json", _put("representations", "spin_one", "dim_V", value=True),
                 ["validate"], ("representations.spin_one.dim_V",), id="dim-v-bool"),
    pytest.param("su2.json", _put("representations", "spin_half", "skew_hermitian",
                                  value="false"),
                 ["validate"], ("representations.spin_half.skew_hermitian",),
                 id="skew-hermitian-str"),
    pytest.param("su2.json", _put("lie_algebra", "weights", value=[True, True, True]),
                 ["validate"], ("lie_algebra.weights", "got true"), id="weights-bool"),
    pytest.param("su2.json", _put("lie_algebra", "structure", "0,1", value={"2": True}),
                 ["validate"], ("'0,1'", "got true"), id="structure-constant-bool"),
    pytest.param("su2.json", _put("functionals", "spin_half", "values", "0,0,0", value=True),
                 ["validate"], ("functionals.spin_half[0,0,0]", "got true"),
                 id="functional-value-bool"),
    pytest.param("su2.json", _put("functionals", "spin_half", "values", "0,0,1",
                                  value=["0", False]),
                 ["validate"], ("functionals.spin_half[0,0,1]", "got false"),
                 id="functional-imaginary-part-bool"),
    pytest.param("su2.json", _put("representations", "spin_one", "cyclic_vector",
                                  value=[True, "0", "0"]),
                 ["validate"], ("representations.spin_one", "got true"),
                 id="cyclic-vector-bool"),
    pytest.param("su2.json", _set("local-hom", "x", [True, "0", "0"]), ["validate"],
                 ("suites[6]", "x:", "got true"), id="x-entry-bool"),
    pytest.param("su2.json", _set("radius", "expected", True), ["validate"],
                 ("suites[2]", "expected"), id="expected-bool"),
    pytest.param("su2.json", _set("local-hom", "scales", [False]), ["validate"],
                 ("suites[6]", "scales"), id="scale-bool"),
    pytest.param("su2.json", _float_rep("cyclic_vector", [0], True), ["validate"],
                 ("representations.spin_one_float.cyclic_vector", "got true"),
                 id="float-cyclic-vector-bool"),
    pytest.param("su2.json", _float_rep("generators", [1, 0, 2], False), ["validate"],
                 ("representations.spin_one_float.generators", "got false"),
                 id="float-generator-bool"),
    pytest.param("su2.json", _float_rep("generators", [1, 0, 2], "nan"), ["validate"],
                 ("representations.spin_one_float.generators", "finite"),
                 id="float-generator-nan"),
    pytest.param("su2.json", _float_rep("cyclic_vector", [0], float("inf")), ["validate"],
                 ("representations.spin_one_float.cyclic_vector", "finite"),
                 id="float-cyclic-vector-infinite"),
    pytest.param("su2.json", _put("representations", "spin_half", "cyclic_vector",
                                  value=["0", "0"]),
                 ["validate"], ("representations.spin_half.cyclic_vector", "nonzero"),
                 id="cyclic-vector-zero"),
    pytest.param("su2.json", _float_rep("cyclic_vector", [0], "-0.0"), ["validate"],
                 ("representations.spin_one_float.cyclic_vector", "nonzero"),
                 id="float-cyclic-vector-zero"),
    pytest.param("su2.json", _set("extension", "probes", 0), ["validate"],
                 ("suites[9] (extension)", "probes"), id="extension-probes-zero"),
    pytest.param("su2.json", _set("kernel", "repetitions", 0), ["validate"],
                 ("suites[7] (kernel)", "repetitions"), id="kernel-repetitions-zero"),
    pytest.param("su2.json", _set("pbw-confluence", "count", 0), ["validate"],
                 ("suites[1] (pbw-confluence)", "count"), id="pbw-confluence-count-zero"),
    pytest.param("su2.json", _set("positivity", "directions", 0), ["validate"],
                 ("suites[4] (positivity)", "directions"), id="positivity-directions-zero"),
    pytest.param("su2.json", _set("recursion", "n_max", 0), ["validate"],
                 ("suites[3] (recursion)", "n_max"), id="recursion-n-max-zero"),
    pytest.param("su2.json", None, ["--degree", "0", "run", "recursion"],
                 ("suite 'recursion'", "n_max"), id="degree-zero-override-recursion"),
    pytest.param("su2.json", _set("pbw-confluence", "max_length", 0), ["validate"],
                 ("suites[1] (pbw-confluence)", "max_length"), id="pbw-confluence-length-zero"),
    pytest.param("su2.json", None, ["--degree", "0", "run", "pbw-confluence"],
                 ("suite 'pbw-confluence'", "max_length"),
                 id="degree-zero-override-pbw-confluence"),
    pytest.param("su2.json", _set("local-hom", "degree", 0), ["validate"],
                 ("suites[6] (local-hom)", "degree"), id="local-hom-degree-zero"),
    pytest.param("su2.json", None, ["--degree", "0", "run", "local-hom"],
                 ("suite 'local-hom'", "degree"), id="degree-zero-override-local-hom"),
    pytest.param("su2.json", _set("local-hom", "scales", ["1/5", "1/5"]), ["validate"],
                 ("suites[6] (local-hom): scales: '1/5' is given more than once",),
                 id="local-hom-scales-repeated"),
    pytest.param("su2.json", _set("local-hom", "scales", ["1/10", "1/5", "2/10"]), ["run-all"],
                 ("suites[6] (local-hom): scales: '2/10' is given more than once",),
                 id="local-hom-scales-equal-rationals"),
    pytest.param("su2.json", _set("radius", "expected", "0"), ["validate"],
                 ("suites[2] (radius)", "expected", "positive"), id="radius-expected-zero"),
    pytest.param("su2.json", _set("radius", "expected", "-1"), ["validate"],
                 ("suites[2] (radius)", "expected", "positive"), id="radius-expected-negative"),
    pytest.param("su2.json", _set("extension", "probe_norm", "0"), ["validate"],
                 ("suites[9] (extension)", "probe_norm", "positive"),
                 id="extension-probe-norm-zero"),
    pytest.param("su2.json", _set("extension", "degrees", [3, 2]), ["validate"],
                 ("suites[9] (extension)", "degrees", "increasing"),
                 id="extension-degrees-decreasing"),
    pytest.param("gaussian.json", _set("extension", "degrees", [4, 4, 8]), ["validate"],
                 ("suites[2] (extension)", "degrees", "increasing"),
                 id="extension-degrees-repeated"),
    pytest.param("su2.json", _set("positivity", "power_max", 0), ["validate"],
                 ("suites[4] (positivity)", "power_max"), id="positivity-power-max-zero"),
    pytest.param("su2.json", _set("cauchy", "r", 1e-300), ["validate"],
                 ("suites[8] (cauchy)", "r:", "overflows binary64"), id="cauchy-r-tiny"),
    pytest.param("su2.json", _set("radius", "expected", "1" + "0" * 400), ["validate"],
                 ("config error: suites[2] (radius): expected: must be a positive rational like "
                  "'1/2', finite in binary64\n",),
                 id="radius-expected-beyond-binary64"),
    pytest.param("gaussian.json", _set("extension", "times", ["0", "1" + "0" * 400]),
                 ["run-all"],
                 ("config error: suites[2] (extension): times: must be a rational like '1/2', "
                  "finite in binary64\n",),
                 id="extension-times-beyond-binary64"),
    pytest.param("su2.json", _set("local-hom", "scales", ["1/5", "1" + "0" * 400]), ["validate"],
                 ("suites[6] (local-hom): scales:", "finite in binary64"),
                 id="local-hom-scales-beyond-binary64"),
    pytest.param("su2.json", _set("extension", "probe_norm", "1" + "0" * 400), ["validate"],
                 ("suites[9] (extension): probe_norm:", "finite in binary64"),
                 id="extension-probe-norm-beyond-binary64"),
    pytest.param("su2.json", _set("cauchy", "r", 1e-20), ["--degree", "16", "run", "cauchy"],
                 ("suite 'cauchy'", "r:", "r**-16"), id="degree-override-cauchy-r"),
    pytest.param("su2.json", _heisenberg_rep_in("cauchy"), ["validate"],
                 ("suites[0] (cauchy): representation: 'h' is not skew-hermitian",),
                 id="cauchy-not-skew-hermitian"),
    pytest.param("su2.json", _heisenberg_rep_in("extension"), ["validate"],
                 ("suites[0] (extension): representation: 'h' is not skew-hermitian",),
                 id="extension-not-skew-hermitian"),
    pytest.param("su2.json", _put("functionals", value=["x"]), ["validate"],
                 ("config.functionals", "object"), id="functionals-list"),
    pytest.param("su2.json", _put("representations", value="abc"), ["validate"],
                 ("config.representations", "object"), id="representations-block-str"),
    pytest.param("su2.json", _put("suites", value="radius"), ["validate"],
                 ("config.suites", "list"), id="suites-str"),
    pytest.param("su2.json", _put("representations", "spin_half", "cyclic_vector", value="10"),
                 ["validate"], ("representations.spin_half.cyclic_vector", "'10'"),
                 id="cyclic-vector-str"),
    pytest.param("su2.json", _put("representations", "spin_half", "cyclic_vector",
                                  value={"1": 0, "0": 1}),
                 ["validate"], ("representations.spin_half.cyclic_vector", "list"),
                 id="cyclic-vector-object"),
    pytest.param("su2.json", _trivial_rep_with_row("00"), ["validate"],
                 ("representations.trivial.generators", "'00'"), id="generator-row-str"),
    pytest.param("su2.json", _put("functionals", "spin_half", "values", "0,0,0 ", value="7"),
                 ["validate"], ("functionals.spin_half.values", "'0,0,0 '"),
                 id="value-key-space"),
    pytest.param("su2.json", _put("functionals", "spin_half", "values", "0,0,00", value="7"),
                 ["validate"], ("functionals.spin_half.values", "'0,0,00'"),
                 id="value-key-leading-zero"),
    pytest.param("su2.json", _put("functionals", "spin_half", "values", "0,+1,0", value="7"),
                 ["validate"], ("functionals.spin_half.values", "'0,+1,0'"),
                 id="value-key-sign"),
    pytest.param("su2.json", _rename_target("2", "02"), ["validate"],
                 ("lie_algebra.structure['0,1']", "'02'"), id="structure-target-leading-zero"),
    pytest.param("su2.json", _put("lie_algebra", "structure", "0,1", "02", value="5"),
                 ["validate"], ("lie_algebra.structure['0,1']", "'02'"),
                 id="structure-target-twice"),
    pytest.param("su2.json", _put("lie_algebra", "structure", "0, 2", value={"1": "-1"}),
                 ["validate"], ("lie_algebra.structure['0, 2']",), id="structure-key-space"),
    pytest.param("su2.json", _repeat("functionals", "spin_half", "values", "0,0,0", value="3"),
                 ["validate"], ("functionals.spin_half.values", "'0,0,0'", "more than once"),
                 id="value-key-repeated"),
    pytest.param("su2.json", _repeat("suites", 7, "repetitions", value=2), ["validate"],
                 ("suites[7]", "'repetitions'", "more than once"), id="suite-parameter-repeated"),
    pytest.param("su2.json", _repeat("representations", "spin_half"), ["validate"],
                 ("config.representations", "'spin_half'", "more than once"),
                 id="representation-name-repeated"),
    # one row per site that names a failing key, each with its full message
    pytest.param("su2.json", _put("lie_algebra", "dim", value=True), ["validate"],
                 ("config error: lie_algebra.dim: must be an integer in [1, 4]\n",),
                 id="named-field"),
    pytest.param("su2.json", _put("lie_algebra", "structure", "0,1", value={"2": True}),
                 ["validate"],
                 ("config error: lie_algebra.structure['0,1'][2]: expected a rational, "
                  "got true\n",), id="named-structure-constant"),
    pytest.param("su2.json", _put("lie_algebra", "weights", value=[True, True, True]),
                 ["validate"], ("config error: lie_algebra.weights: expected a rational, "
                                "got true\n",), id="named-weights"),
    pytest.param("su2.json", _put("lie_algebra", "basis_names", value=["x", "x", "y"]),
                 ["validate"], ("config error: lie_algebra: basis names must be distinct\n",),
                 id="named-algebra-spec"),
    pytest.param("su2.json", _put("functionals", "spin_half", "values", "0,0,0", value=True),
                 ["validate"], ("config error: functionals.spin_half[0,0,0]: expected a "
                                "rational, got true\n",), id="named-functional-value"),
    pytest.param("su2.json", _float_rep("generators", [1, 0, 2], False), ["validate"],
                 ("config error: representations.spin_one_float.generators: expected a "
                  "number, got false\n",), id="named-generators"),
    pytest.param("su2.json", _put("representations", "spin_half", "cyclic_vector", value="10"),
                 ["validate"], ("config error: representations.spin_half.cyclic_vector: "
                                "expected a JSON list, got '10'\n",), id="named-cyclic-vector"),
    pytest.param("su2.json", _float_rep_beyond_binary64, ["validate"],
                 ("config error: representations.big: homomorphism law fails at pair (0, 1): "
                  "residual inf\n",), id="named-representation-beyond-binary64"),
    pytest.param("su2.json", _set("pbw-confluence", "count", "many"), ["validate"],
                 ("config error: suites[1] (pbw-confluence): count: must be an integer in "
                  "[1, inf]\n",), id="named-suite-parameter"),
    pytest.param("su2.json", _set("recursion", "n_max", 6), ["validate"],
                 ("config error: suites[3] (recursion): n_max: recursion to n=6 needs "
                  "functional degree 7, 'spin_half' has 6\n",), id="named-suite-consistency"),
]


@pytest.mark.parametrize("config, patch, argv, needles", MALFORMED)
def test_malformed_input_exits_2_naming_key(tmp_path, capsys, config, patch, argv, needles):
    doc = shipped(config)
    if patch is not None:
        patch(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["--config", str(path)] + argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ")
    for needle in needles:
        assert needle in err


def _line_table(value, suites):
    """The one-dimensional algebra with ``lam(1) = 1``, ``lam(x^2) = value`` to degree 3."""
    return {
        "lie_algebra": {"dim": 1, "basis_names": ["x"], "structure": {}, "weights": ["1"]},
        "functionals": {"f": {"max_degree": 3, "values": {"0": "1", "2": value}}},
        "suites": suites,
    }


@pytest.mark.parametrize("value, suites, shown", [
    ("1" + "0" * 400, [{"name": "radius", "functional": "f"},
                       {"name": "recursion", "functional": "f", "n_max": 2}],
     ("raw inf", "c_1 = inf")),
    ("1/1" + "0" * 700, [{"name": "radius", "functional": "f"}], ("actual inf",)),
], ids=["beyond-binary64", "below-binary64"])
def test_exact_values_beyond_binary64_run_to_a_report(tmp_path, capsys, value, suites, shown):
    # the exact results stay exact; their binary64 readings print as inf or 0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_line_table(value, suites)), encoding="utf-8")
    assert main(["--config", str(path), "validate"]) == 0
    assert main(["--config", str(path), "run-all"]) in (0, 1)
    out, err = capsys.readouterr()
    assert err == ""
    for needle in shown:
        assert needle in out


@pytest.mark.parametrize("k", [200, 400, -200, -400])
def test_cyclic_vector_beyond_binary64_runs_to_a_report(tmp_path, capsys, k):
    # lam(1) = 10**(2k) leaves binary64; the exact suites still PASS, and
    # extension reports a deviation (a FAIL where phi itself leaves binary64)
    doc = shipped("su2.json")
    doc["representations"]["spin_half"]["cyclic_vector"] = [str(Fraction(10) ** k), "0"]
    suites = {s["name"]: s for s in doc["suites"]}
    path = tmp_path / "config.json"
    for name in ("positivity", "gns", "extension"):
        doc["suites"] = [suites[name]]
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["--config", str(path), "run-all"])
        out, err = capsys.readouterr()
        assert err == ""
        assert rc in (0, 1) if name == "extension" else rc == 0, out


def test_dump_suites_lists_the_registry_defaults(tmp_path, capsys):
    doc = shipped("su2.json")
    _set("local-hom", "scales", drop=True)(doc)
    _set("extension", "degrees", drop=True)(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(path), "dump", "suites"]) == 0
    blocks = {b["name"]: b for b in json.loads(capsys.readouterr().out)}
    assert blocks["local-hom"]["scales"] == ["1/5", "1/10", "1/20", "1/40"]
    assert blocks["extension"]["degrees"] == [2, 3]
    assert blocks["extension"]["times"] == ["-1", "-1/2", "0", "1/2", "1"]
    # each config holds its own copy of a list default
    parse_config(path.read_text(encoding="utf-8")).suites[6].params["scales"].append("1/80")
    assert SUITES["local-hom"].params["scales"][0] == ["1/5", "1/10", "1/20", "1/40"]
    # the defaults are the values the suites ran with when they were not listed
    for suite in ("local-hom", "extension"):
        argv = ["--format", "machine", "run", suite]
        assert main(["--config", str(path)] + argv) == 0
        omitted = capsys.readouterr().out
        assert main(argv) == 0
        assert omitted == capsys.readouterr().out


def test_deep_nesting_exits_2(tmp_path, capsys):
    text = default_config_path().read_text(encoding="utf-8")
    deep = text.replace('"0,0,0": "1"', '"0,0,0": ' + "[" * 5000 + "]" * 5000, 1)
    path = tmp_path / "config.json"
    path.write_text(deep, encoding="utf-8")
    assert main(["--config", str(path), "validate"]) == 2
    assert capsys.readouterr().err.startswith("config error: config nests")


@pytest.mark.parametrize("make", [
    lambda text: b'{"lie_algebra": \xff}',
    lambda text: text.replace('"dim": 3', '"dim": 1' + "0" * 5000, 1).encode(),
    lambda text: text.replace('"count": 200', '"count": ' + "9" * 5000, 1).encode(),
], ids=["not-utf-8", "dim-past-the-int-digit-limit", "count-past-the-int-digit-limit"])
def test_unreadable_config_exits_2(tmp_path, capsys, make):
    path = tmp_path / "config.json"
    path.write_bytes(make(default_config_path().read_text(encoding="utf-8")))
    assert main(["--config", str(path), "validate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unreadable config: ") and err.count("\n") == 1
    with pytest.raises(ConfigError, match="unreadable config"):
        parse_config(path.read_bytes())


def test_null_blocks_read_as_absent(tmp_path, capsys):
    doc = shipped("su2.json")
    doc.update(functionals=None, representations=None, suites=None)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(path), "validate"]) == 0
    assert "0 functionals, 0 representations, 0 suites" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["-1", "-7", "x", "1.5"])
@pytest.mark.parametrize("suite", ["kernel", "positivity"])
def test_seed_must_be_a_non_negative_integer(capsys, seed, suite):
    with pytest.raises(SystemExit) as info:
        main(["--seed", seed, "run", suite])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: must be a non-negative integer" in err
    assert "suite error" not in err


@pytest.mark.parametrize("suite, key", [("gns", "expected_rank"), ("cauchy", "random_reps")])
def test_zero_admitted_where_it_is_a_real_value(tmp_path, suite, key):
    doc = shipped("su2.json")
    _set(suite, key, 0)(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        assert main(["--config", str(path), "validate"]) == 0


def test_suite_failure_exits_2_naming_suite(tmp_path, capsys):
    # valid at load; exp(z R) overflows binary64 inside the cauchy suite
    doc = shipped("su2.json")
    _set("cauchy", "r", 1e300)(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(path), "validate"]) == 0
    capsys.readouterr()
    rc = main(["--config", str(path), "--format", "machine", "run-all"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("suite error: suite 'cauchy' stopped: OverflowError: ")
    assert captured.err.count("\n") == 1


def test_unexpected_exception_in_any_suite_exits_2(monkeypatch, capsys):
    def broken(config, params, seed):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(SUITES, "kernel", SUITES["kernel"]._replace(runner=broken))
    rc = main(["run", "kernel"])
    assert rc == 2
    assert capsys.readouterr().err == "suite error: suite 'kernel' stopped: ZeroDivisionError: boom\n"
    with pytest.raises(SuiteError) as info:
        run_suite(parse_config(json.dumps(shipped("su2.json"))), "kernel")
    assert isinstance(info.value.__cause__, ZeroDivisionError)


def _kernel_on_a_steep_line():
    """A config that passes ``validate`` but whose ``kernel`` suite stops: the
    line rep's exp(t X) is far from unitary in binary64, which only the
    suite's sampling finds."""
    doc = json.loads(MINIMAL)
    doc["representations"] = {"line": {
        "dim_V": 2, "mode": "float", "skew_hermitian": True,
        "generators": [[[0, 1e17], [-1e17, 0]]], "cyclic_vector": [1, 0]}}
    doc["suites"] = [{"name": "kernel", "representation": "line"}]
    return doc


def test_runtime_error_names_its_suite(tmp_path):
    doc = _kernel_on_a_steep_line()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert capture_both(["--config", str(path), "validate"])[0] == 0
    rc, out, err = capture_both(["--config", str(path), "run-all"])
    assert (rc, out) == (2, "")
    assert err.startswith("suite error: suite 'kernel' stopped: RepresentationError: ")
    assert err.count("\n") == 1
    with pytest.raises(SuiteError) as info:
        run_all(parse_config(json.dumps(doc)))
    assert isinstance(info.value.__cause__, errors.RepresentationError)


_JUNK = st.one_of(
    st.booleans(),
    st.text(max_size=4),
    st.integers(max_value=-1),
    st.lists(st.one_of(st.integers(-3, 3), st.text(max_size=3)), max_size=3),
    st.none(),
)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_suite_params_validate_cleanly(tmp_path_factory, data):
    doc = shipped(data.draw(st.sampled_from(["su2.json", "gaussian.json"])))
    block = data.draw(st.sampled_from(doc["suites"]))
    key = data.draw(st.sampled_from(sorted(SUITES[block["name"]].params)))
    block[key] = data.draw(_JUNK)
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = main(["--config", str(path), "validate"])
    assert rc in (0, 2)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_block_keys_validate_cleanly(tmp_path_factory, data):
    doc = shipped(data.draw(st.sampled_from(["su2.json", "gaussian.json"])))
    blocks = [(doc["lie_algebra"], ("dim", "basis_names", "weights"))]
    blocks += [(b, ("max_degree",)) for b in doc.get("functionals", {}).values()]
    blocks += [(b, ("dim_V", "skew_hermitian", "mode"))
               for b in doc.get("representations", {}).values()]
    block, keys = data.draw(st.sampled_from(blocks))
    block[data.draw(st.sampled_from(keys))] = data.draw(_JUNK)
    path = tmp_path_factory.getbasetemp() / "fuzz-block.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = main(["--config", str(path), "validate"])
    assert rc in (0, 2)


_SMALL_DICTS = st.dictionaries(st.text(max_size=6), _JUNK, max_size=2)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_block_shapes_validate_cleanly(tmp_path_factory, data):
    # whole blocks and the keys holding lists or objects, replaced by junk or small dicts
    doc = shipped(data.draw(st.sampled_from(["su2.json", "gaussian.json"])))
    blocks = [(doc, ("functionals", "representations", "suites")),
              (doc["lie_algebra"], ("structure",))]
    blocks += [(b, ("values",)) for b in doc.get("functionals", {}).values()]
    blocks += [(b, ("generators", "cyclic_vector"))
               for b in doc.get("representations", {}).values()]
    block, keys = data.draw(st.sampled_from(blocks))
    block[data.draw(st.sampled_from(keys))] = data.draw(st.one_of(_JUNK, _SMALL_DICTS))
    path = tmp_path_factory.getbasetemp() / "fuzz-shape.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = main(["--config", str(path), "validate"])
    assert rc in (0, 2)


@pytest.mark.parametrize("min_slope, shown", [(0, "0"), (None, "4.5"), (6, "6")])
def test_local_hom_reports_the_slope_threshold_it_applies(tmp_path, min_slope, shown):
    doc = shipped("su2.json")
    _set("local-hom", "min_slope", min_slope, drop=min_slope is None)(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out = capture(["--config", str(path), "--format", "machine", "run", "local-hom"])
    check = json.loads(out.splitlines()[0])
    assert check["expected"] == f"fitted slope >= {shown}"
    slope = float(check["actual"].split()[1])
    assert (check["status"] == "PASS") == (slope >= float(shown))
    assert rc == (0 if check["status"] == "PASS" else 1)


@pytest.mark.parametrize("fmt", ["machine", "text"])
def test_local_hom_with_one_scale_reports_an_absent_slope(tmp_path, fmt):
    doc = shipped("su2.json")
    _set("local-hom", "scales", ["1/10"])(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out = capture(["--config", str(path), "--format", fmt, "run", "local-hom"])
    assert rc == 1
    if fmt == "machine":
        check = json.loads(out.splitlines()[0])
        assert (check["status"], check["actual"]) == ("FAIL", "slope n/a")
    else:
        assert "slope n/a" in out


def test_gns_at_degree_zero_passes_skewness_vacuously(tmp_path):
    # a degree-0 model has no operators; the schema admits d_max 0
    doc = shipped("su2.json")
    _set("gns", "expected_rank", drop=True)(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out = capture(["--config", str(path), "--format", "machine", "--degree", "0",
                       "run", "gns"])
    checks = {rec["id"]: rec for rec in map(json.loads, out.splitlines())
              if rec["kind"] == "check"}
    assert checks["skew-symmetry"]["status"] == "PASS"
    assert checks["skew-symmetry"]["actual"].startswith("no operators (degree 0")
    assert rc == 0


def test_suite_names_cover_all_pipelines():
    assert set(SUITE_NAMES) == {
        "bch-identity", "pbw-confluence", "radius", "recursion", "positivity",
        "gns", "local-hom", "kernel", "cauchy", "extension",
    }


@pytest.mark.parametrize("r", [1.0, 1e-20, 1e300])
def test_cauchy_r_admitted_while_r_to_the_minus_n_max_is_finite(tmp_path, r):
    # su2 ships r = 1.0; 1e-20 ** -12 is still a binary64 number
    doc = shipped("su2.json")
    _set("cauchy", "r", r)(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert capture(["--config", str(path), "validate"])[0] == 0


_HEAVY_IMPORTS = """
import sys
{body}
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "sympy")
               and m != {allowed!r})
assert not heavy, heavy
"""

_RUN_ALL = """from envalg.cli import default_config_path, main
assert main(['--config', str(default_config_path().parent / {name!r}), 'run-all']) == 0"""
_KERNELS = "scipy.linalg._matfuncs_expm"
# the console script's entry point, as ``envalg <argv>`` runs it; ``main_entry``
# leaves through ``os._exit``, which here raises SystemExit in this process
# (a forked worker still leaves at once), so the checks after it run
_ENTRY = """import os
from envalg.cli import main_entry
sys.argv = ['envalg'] + {argv!r}
_exit, _pid = os._exit, os.getpid()
os._exit = lambda code: _exit(code) if os.getpid() != _pid else sys.exit(code)
try:
    main_entry()
except SystemExit as stop:
    assert stop.code == 0, stop.code
else:
    raise AssertionError("main_entry returned")"""


@pytest.mark.parametrize("body, allowed", [
    ("import envalg", None),
    ("from envalg.cli import main\nassert main(['validate']) == 0", None),
    # the group side loads SciPy's compiled expm kernels and nothing else
    (_RUN_ALL.format(name="su2.json"), _KERNELS),
    (_RUN_ALL.format(name="gaussian.json"), _KERNELS),
    # finding SciPy's bundled OpenBLAS imports no scipy module
    (_ENTRY.format(argv=["run-all"]), _KERNELS),
], ids=["import", "validate", "run-all-su2", "run-all-gaussian", "main-entry-run-all"])
def test_import_and_validate_load_neither_scipy_nor_sympy(body, allowed):
    env = dict(os.environ, PYTHONPATH=str(Path(envalg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _HEAVY_IMPORTS.format(body=body, allowed=allowed)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _python(*args):
    """Run a fresh interpreter on this checkout's envalg; stdout and stderr as bytes."""
    env = dict(os.environ, PYTHONPATH=str(Path(envalg.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=300)


def test_import_leaves_dataclasses_out():
    # the records are named tuples, so no dataclass builds its methods at import
    proc = _python("-c", "import sys, envalg\nassert 'dataclasses' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


_PROCESS_STATE = """
import ctypes, gc, json, sys
{body}
from envalg.group_integration import _bundled_openblas
pools = []
for library, suffix in _bundled_openblas():
    getter = getattr(library, f"scipy_openblas_get_num_threads{{suffix}}", None)
    if getter is not None:
        getter.argtypes, getter.restype = (), ctypes.c_int
        pools.append(getter())
print(json.dumps({{"pools": pools, "frozen": gc.get_freeze_count()}}))
"""


def _process_state(body):
    proc = _python("-c", _PROCESS_STATE.format(body=body))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestEntryPointOwnsItsProcess:
    """``main_entry`` sets one BLAS thread per bundled pool and freezes the start-up heap."""

    @pytest.fixture(scope="class")
    def defaults(self):
        state = _process_state("")
        if not state["pools"]:
            pytest.skip("no bundled OpenBLAS with a thread-count getter")
        return state

    def test_main_entry_takes_both_settings(self, defaults):
        state = _process_state(_ENTRY.format(argv=["run-all"]))
        assert state["pools"] == [1] * len(defaults["pools"])
        assert state["frozen"] > 0

    @pytest.mark.parametrize("argv", [["validate"], ["run-all"]])
    def test_library_callers_keep_the_defaults(self, defaults, argv):
        state = _process_state(f"import envalg\nfrom envalg.cli import main\n"
                               f"assert main({argv!r}) == 0")
        assert state == {"pools": defaults["pools"], "frozen": 0}


# ``python -m envalg`` with the CPU count that ``run-all`` reads pinned, so its
# suites split over the same processes on any host; ``faults`` maps a suite
# to the exception class (in ``envalg.errors`` or a builtin) its runner raises
_ENVALG_ON_CPUS = """import builtins, os, runpy, sys
from envalg import cli, errors
os.sched_getaffinity = lambda pid: set(range({cpus}))
for name, kind in {faults!r}.items():
    exc = (getattr(errors, kind, None) or getattr(builtins, kind))(f"injected in {{name}}")
    def runner(config, params, seed, exc=exc):
        raise exc
    cli.SUITES[name] = cli.SUITES[name]._replace(runner=runner)
sys.argv = ["envalg"] + {argv!r}
runpy.run_module("envalg", run_name="__main__", alter_sys=True)
"""


def _envalg(argv, cpus=2, faults=None, flags=()):
    return _python(*flags, "-c", _ENVALG_ON_CPUS.format(cpus=cpus, faults=faults or {}, argv=argv))


def _inject(monkeypatch, faults):
    """The in-process twin of ``_ENVALG_ON_CPUS``'s ``faults``."""
    for name, kind in faults.items():
        exc = (getattr(errors, kind, None) or getattr(builtins, kind))(f"injected in {name}")

        def runner(config, params, seed, exc=exc):
            raise exc

        monkeypatch.setitem(SUITES, name, SUITES[name]._replace(runner=runner))


def capture_both(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(args)
    return rc, out.getvalue(), err.getvalue()


def _masked(text):
    """A text report with its ``(x.xx s)`` suite durations masked."""
    return re.sub(rb"\(\d+\.\d\d s\)", b"(x.xx s)", text)


class TestModuleExitCodes:
    """Exit codes and report bytes of ``python -m envalg``.

    With two CPUs, su2's ``run-all`` runs bch-identity, radius, positivity,
    local-hom and cauchy in the parent and the other five in a worker; each
    outcome comes out as it does from the sequential in-process ``main``.
    """

    @pytest.mark.parametrize("patch", [_set("gns", "expected_rank", 3),
                                       _set("radius", "expected", "3")],
                             ids=["worker-share", "parent-share"])
    def test_failing_check_exits_1_with_the_full_report(self, tmp_path, patch):
        doc = shipped("su2.json")
        patch(doc)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["--config", str(path), "--format", "machine", "run-all"]
        proc = _envalg(argv)
        assert proc.returncode == 1, proc.stderr
        rc, out = capture(argv)
        assert rc == 1 and proc.stdout == out.encode("utf-8")
        records = [json.loads(line) for line in out.splitlines()]
        assert records[-1]["kind"] == "summary"
        assert {r["suite"] for r in records if r["kind"] == "suite"} == set(SUITE_NAMES)
        assert [r["status"] for r in records if r["kind"] == "check" and r["status"] != "PASS"] \
            == ["FAIL"]

    @pytest.mark.parametrize("faults, first", [
        ({"gns": "RepresentationError"}, "gns"),
        ({"radius": "ZeroDivisionError"}, "radius"),
        ({"gns": "RepresentationError", "radius": "ZeroDivisionError"}, "radius"),
        ({"pbw-confluence": "ZeroDivisionError", "cauchy": "RepresentationError"},
         "pbw-confluence"),
    ], ids=["workbench-error-in-worker", "foreign-in-parent", "parent-first", "worker-first"])
    def test_raising_suite_exits_2_as_in_process(self, monkeypatch, faults, first):
        argv = ["--format", "machine", "run-all"]
        proc = _envalg(argv, faults=faults)
        _inject(monkeypatch, faults)
        rc, out, err = capture_both(argv)
        assert proc.returncode == rc == 2
        assert proc.stdout == b"" and out == ""
        assert proc.stderr == err.encode("utf-8")
        assert err.count("\n") == 1 and f"injected in {first}" in err
        assert err.startswith(f"suite error: suite {first!r} stopped: {faults[first]}: ")

    def test_malformed_config_exits_2_with_a_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(MINIMAL[:-1], encoding="utf-8")
        proc = _envalg(["--config", str(path), "run-all"])
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"config error: ") and proc.stderr.count(b"\n") == 1

    # the text report prints timings, so only the machine report repeats byte for byte
    @pytest.mark.parametrize("name", ["su2.json", "gaussian.json"])
    def test_out_writes_the_bytes_stdout_prints(self, tmp_path, name):
        path = str(default_config_path().parent / name)
        argv = ["--config", path, "--format", "machine", "--seed", "3", "run-all"]
        printed = _envalg(argv)
        out = tmp_path / "report.txt"
        written = _envalg(["--out", str(out), *argv])
        assert printed.returncode == written.returncode == 0
        assert written.stdout == b""
        assert out.read_bytes() == printed.stdout != b""

    @pytest.mark.parametrize("name, seed", [("su2.json", 0), ("su2.json", 7), ("su2.json", 31),
                                            ("gaussian.json", 0)])
    def test_reports_match_in_process_main(self, name, seed):
        path = str(default_config_path().parent / name)
        for fmt in ("machine", "text"):
            argv = ["--config", path, "--format", fmt, "--seed", str(seed), "run-all"]
            proc = _envalg(argv)
            rc, out = capture(argv)
            assert proc.returncode == rc == 0, proc.stderr
            printed = out.encode("utf-8")
            if fmt == "text":
                proc.stdout, printed = _masked(proc.stdout), _masked(printed)
            assert proc.stdout == printed

    def test_passing_run_leaves_stderr_empty(self):
        # Python 3.12 and later emit a DeprecationWarning when they fork a
        # process that they see as multi-threaded, and the bundled OpenBLAS
        # pools hold threads.  OpenBLAS's fork handler stops its pool threads
        # before the fork (a process with both pools goes from 3 threads to
        # 1), so no warning may appear.  On Python 3.11 ``os.fork`` never
        # warns, and there the test guards only the rest of stderr.
        proc = _envalg(["run-all"], flags=["-W", "error::DeprecationWarning"])
        assert proc.returncode == 0
        assert proc.stderr == b""


def _closed_stdout(args, unbuffered):
    """``python <args>`` writing to a pipe whose reader is gone."""
    env = dict(os.environ, PYTHONPATH=str(Path(envalg.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, *args], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(write)


class TestEntryPointExit:
    """``main_entry`` leaves through ``os._exit`` with the exit status and the
    bytes of a run that leaves through the interpreter's teardown."""

    def test_exit_codes_and_out_file(self, tmp_path):
        failing = shipped("su2.json")
        _set("gns", "expected_rank", 3)(failing)
        for code, doc in ((0, shipped("gaussian.json")), (1, failing), (2, _kernel_on_a_steep_line())):
            path = tmp_path / f"config{code}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["--config", str(path), "--format", "machine", "run-all"]
            proc = _python("-m", "envalg", *argv)
            rc, out, err = capture_both(argv)
            assert proc.returncode == rc == code
            assert (proc.stdout, proc.stderr) == (out.encode("utf-8"), err.encode("utf-8"))
            report = tmp_path / f"report{code}.txt"
            written = _python("-m", "envalg", "--out", str(report), *argv)
            assert (written.returncode, written.stdout, written.stderr) == (code, b"", proc.stderr)
            assert report.read_bytes() == proc.stdout
            assert (proc.stdout == b"") == (code == 2)

    # Pinned on the parent of the ``os._exit`` change, where the entry point
    # ended in ``raise SystemExit(main(...))``.  Buffered, a report up to 8 KiB
    # waits for the teardown's flush, which fails: status 120, and the
    # teardown's report on stderr (the one any script writing to the pipe
    # gets).  A larger report, or an unbuffered stdout, fails in ``main``'s
    # write: status 2 and ``output error:``; ``validate``'s print has no such
    # guard and ends in a traceback, status 1.
    @pytest.mark.parametrize("argv, unbuffered, status", [
        (["run-all"], False, 120),
        (["validate"], False, 120),
        (["--config", str(default_config_path().parent / "gaussian.json"),
          "--format", "machine", "run-all"], False, 120),
        (["--format", "machine", "run-all"], False, 2),
        (["run-all"], True, 2),
        (["validate"], True, 1),
    ], ids=["text", "validate", "machine-gaussian", "machine-su2", "unbuffered-text",
            "unbuffered-validate"])
    def test_closed_stdout_as_at_teardown(self, argv, unbuffered, status):
        proc = _closed_stdout(["-m", "envalg", *argv], unbuffered)
        broken = f"BrokenPipeError: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n".encode()
        assert proc.returncode == status
        if status == 120:
            teardown = _closed_stdout(["-c", "print('config OK')"], unbuffered)
            assert teardown.returncode == 120 and proc.stderr == teardown.stderr
            assert proc.stderr.startswith(b"Exception ignored in: ") and proc.stderr.endswith(broken)
        elif status == 2:
            assert proc.stderr == b"output error: " + broken[len(b"BrokenPipeError: "):]
        else:
            assert proc.stderr.startswith(b"Traceback") and proc.stderr.endswith(broken)


def _machine(reports):
    buffer = io.StringIO()
    render_machine(reports, buffer)
    return buffer.getvalue()


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRunAllOnCpus:
    """The fan-out of ``run-all``: its split, its merge, its workers' lives."""

    names = [block["name"] for block in shipped("su2.json")["suites"]]

    @pytest.fixture
    def config(self):
        return parse_config(json.dumps(shipped("su2.json")))

    @staticmethod
    def _cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    @staticmethod
    def _fds():
        return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None

    def test_normal_return_reaps_every_worker(self, monkeypatch, config):
        expected = _machine(run_all(config, 1))
        self._cpus(monkeypatch, 2)
        fds = self._fds()
        assert _machine(_run_all_on_cpus(config, 1)) == expected
        _no_children_left()
        assert self._fds() == fds

    def test_three_cpus_split_by_k_mod_3(self, monkeypatch, config, tmp_path):
        expected = _machine(run_all(config, 5))
        log, real = tmp_path / "ran.txt", cli.run_suite

        def logged(config, name, *args):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {name}\n")
            return real(config, name, *args)

        monkeypatch.setattr(cli, "run_suite", logged)
        self._cpus(monkeypatch, 3)
        assert _machine(_run_all_on_cpus(config, 5)) == expected
        _no_children_left()
        ran = {}
        for line in log.read_text(encoding="utf-8").splitlines():
            pid, name = line.split()
            ran.setdefault(int(pid), []).append(name)
        assert ran.pop(os.getpid()) == self.names[0::3]
        assert sorted(ran.values()) == sorted([self.names[1::3], self.names[2::3]])

    @pytest.mark.parametrize("error", [ZeroDivisionError, KeyboardInterrupt])
    def test_an_exception_in_the_parents_share_reaps_every_worker(self, monkeypatch, config,
                                                                  error):
        _inject(monkeypatch, {"radius": error.__name__})
        self._cpus(monkeypatch, 2)
        with pytest.raises(SuiteError if error is ZeroDivisionError else KeyboardInterrupt):
            _run_all_on_cpus(config)
        _no_children_left()

    def test_a_dead_worker_is_a_suite_error(self, monkeypatch, config, capsys):
        parent, real = os.getpid(), cli.run_suite

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(cli, "run_suite", dying)
        self._cpus(monkeypatch, 2)
        with pytest.raises(SuiteError) as info:
            _run_all_on_cpus(config)
        _no_children_left()
        suites = ", ".join(repr(name) for name in self.names[1::2])
        assert str(info.value) == \
            f"the worker running suites {suites} exited with status 3 before it reported them all"
        assert main(["run-all"], all_suites=_run_all_on_cpus) == 2
        _no_children_left()
        assert capsys.readouterr().err == f"suite error: {info.value}\n"

    @pytest.mark.parametrize("how", ["one-cpu", "fork-fails", "no-fork"])
    def test_fallback_runs_in_one_process(self, monkeypatch, config, how):
        expected = _machine(run_all(config, 2))
        forks = []

        def fork():
            forks.append(how)
            raise OSError(11, "Resource temporarily unavailable")

        self._cpus(monkeypatch, 1 if how == "one-cpu" else 2)
        if how == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", fork)
        fds = self._fds()
        assert _machine(_run_all_on_cpus(config, 2)) == expected
        assert forks == (["fork-fails"] if how == "fork-fails" else [])
        _no_children_left()
        assert self._fds() == fds
