"""Config parsing, serialization round trips, suite dispatch and exit codes."""

import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import envalg
from envalg.cli import (
    SUITE_NAMES,
    SUITES,
    default_config_path,
    main,
    parse_config,
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
    pytest.param("su2.json", _set("cauchy", "r", 1e-300), ["validate"],
                 ("suites[8] (cauchy)", "r:", "overflows binary64"), id="cauchy-r-tiny"),
    pytest.param("su2.json", _set("cauchy", "r", 1e-20), ["--degree", "16", "run", "cauchy"],
                 ("suite 'cauchy'", "r:", "r**-16"), id="degree-override-cauchy-r"),
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

    monkeypatch.setitem(SUITES, "kernel", dataclasses.replace(SUITES["kernel"], runner=broken))
    rc = main(["run", "kernel"])
    assert rc == 2
    assert capsys.readouterr().err == "suite error: suite 'kernel' stopped: ZeroDivisionError: boom\n"
    with pytest.raises(SuiteError) as info:
        run_suite(parse_config(json.dumps(shipped("su2.json"))), "kernel")
    assert isinstance(info.value.__cause__, ZeroDivisionError)


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


@pytest.mark.parametrize("body, allowed", [
    ("import envalg", None),
    ("from envalg.cli import main\nassert main(['validate']) == 0", None),
    # the group side loads SciPy's compiled expm kernels and nothing else
    (_RUN_ALL.format(name="su2.json"), _KERNELS),
    (_RUN_ALL.format(name="gaussian.json"), _KERNELS),
], ids=["import", "validate", "run-all-su2", "run-all-gaussian"])
def test_import_and_validate_load_neither_scipy_nor_sympy(body, allowed):
    env = dict(os.environ, PYTHONPATH=str(Path(envalg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _HEAVY_IMPORTS.format(body=body, allowed=allowed)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
