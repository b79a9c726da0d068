import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ssfourier
import ssfourier.dimensions
import ssfourier.pushforward
import ssfourier.sparse
from ssfourier import (
    AnalyticMap,
    IFSDescriptor,
    alpha_estimate,
    bernoulli_dim_lower,
    covering_report,
    decay_profile,
    delta_higherdim,
    finite_approximation,
    grid_scan,
    lq_moment,
    mu_hat,
    scanfield_to_binary,
    truncation_index,
)
from ssfourier.cli import (
    EXIT_BUDGET,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    _parse_radii,
    parse_complex,
    run,
)

from conftest import measure_to_csv


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def same_repr(got, want) -> bool:
    """Equal documents, every float to the last bit (json writes floats by repr)."""
    return json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """json.loads that refuses the NaN and Infinity extensions."""
    return json.loads(text, parse_constant=_no_constant)


class TestParsing:
    def test_complex_forms(self):
        assert parse_complex("0.5+0.5i") == 0.5 + 0.5j
        assert parse_complex("-0.3i") == -0.3j
        assert parse_complex("1") == 1.0
        assert parse_complex("0.7-0.2i") == 0.7 - 0.2j


class TestBounds:
    def test_delta_complex_json(self, capsys):
        code, out, err = run_cli(
            capsys, "bounds", "--lambda", "0.5+0.5i", "--p", "0.5,0.5",
            "--epsilon", "0.05",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["branching"] == 4
        assert doc["regime"] == "complex"
        meta = json.loads(err.strip().splitlines()[-1])
        assert meta["tool"] == "ssfourier" and "config_hash" in meta

    def test_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--lambda", "0.5+0.5i", "--p", "0.5,0.5",
            "--sweep", "1e-4:1e-2:5",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "lambda_re,lambda_im,epsilon,delta,valid"
        assert len(lines) == 6
        eps = [line.split(",")[2] for line in lines[1:]]
        assert eps == [repr(float(e)) for e in np.geomspace(1e-4, 1e-2, 5)]
        assert [float(e) for e in eps] == np.geomspace(1e-4, 1e-2, 5).tolist()

    @pytest.mark.parametrize("text", ["1e-4:1e-3", "1e-4:1e-3:0", "a:b:3", "0:1e-3:5"])
    def test_bad_sweep_refused(self, capsys, text):
        code, out, err = run_cli(
            capsys, "bounds", "--lambda", "0.5+0.5i", "--p", "0.5,0.5",
            "--sweep", text,
        )
        assert code == EXIT_USAGE and out == "" and "usage error" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_epsilon_refused(self, capsys, value):
        code, out, _ = run_cli(
            capsys, "bounds", "--lambda", "0.5+0.5i", "--p", "0.5,0.5",
            "--epsilon", value,
        )
        assert code == EXIT_DOMAIN
        assert strict_json(out)["error"]["kind"] == "DomainError"

    def test_regime_error_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--lambda", "0.5", "--p", "0.5,0.5",
            "--regime", "complex", "--epsilon", "0.01",
        )
        assert code == EXIT_DOMAIN
        assert "error" in json.loads(out)

    def test_real_noncollinear_flattening(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--lambda", "0.5", "--p", "0.2,0.3,0.5",
            "--regime", "real_noncollinear", "--kappa", "0.5",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        f = doc["flattening"]
        assert doc["regime"] == "real_noncollinear"
        assert abs(f["kappa"] - 2 * f["epsilon"] - f["delta_at_root"]) < 1e-10

    def test_covering_count_past_the_float_range_is_null(self, capsys):
        # branching^(3 et N + 2) overflows at N = 3000: no finite count
        # applies, written as null as ek cover writes a non-finite bound_count
        code, out, _ = run_cli(capsys, "bounds", "--lambda", "0.5+0.5i", "--p", "0.5,0.5",
                               "--covering-N", "3000")
        assert code == EXIT_OK
        doc = strict_json(out)
        assert doc["covering_N"] == 3000 and doc["covering_bound"] is None
        assert math.isinf(ssfourier.covering_bound(0.5 + 0.5j, (0.5, 0.5), 0.01, 3000))

    def test_real_regime_refuses_complex_lambda(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--lambda", "0.5+0.5i", "--p", "0.2,0.3,0.5",
            "--regime", "real_noncollinear",
        )
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"]["kind"] == "RegimeError"


class TestEval:
    def test_xi_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--lambda", "0.5+0.5i", "--xi", "0",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"][0]["mu_hat"] == [1.0, 0.0]


    def test_rows_match_per_point_mu_hat(self, capsys):
        ifs = IFSDescriptor(0.6 + 0.3j, (-1.0, 0.5j, 1.0 + 1.0j), (0.2, 0.3, 0.5))
        xis = ["0", "0.3", "1+2i", "-17.5-5i", "250i", "1e4-3e3i"]
        tol = 1e-10
        ks = truncation_index(ifs, [abs(complex(x.replace("i", "j"))) for x in xis], tol)
        assert len(set(ks.tolist())) == len(xis)
        code, out, _ = run_cli(
            capsys, "eval", "--lambda", "0.6+0.3i", "--digits=-1,0.5i,1+1i",
            "--probs", "0.2,0.3,0.5", "--tol", repr(tol), "--xi", ",".join(xis),
        )
        assert code == EXIT_OK
        rows = json.loads(out)["results"]
        assert len(rows) == len(xis)
        for text, row in zip(xis, rows):
            xi = complex(text.replace("i", "j"))
            val = mu_hat(ifs, xi, tol)
            assert repr(row["xi"]) == repr([xi.real, xi.imag])
            assert repr(row["mu_hat"]) == repr([val.real, val.imag])
            assert repr(row["abs"]) == repr(abs(val))


class TestImportPath:
    def test_cli_import_loads_no_scipy(self, tmp_path):
        # importing the CLI, and running the commands that find atom gaps and
        # bin Frostman cells, loads no scipy module
        src = str(Path(ssfourier.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        commands = [
            ["push", "--lambda", "0.5+0.5i", "--coeffs", "0,0,1", "--radii", "1,2,4",
             "--directions", "8", "--depth", "6"],
            ["dim", "--lambda", "0.5", "--digits", "0,1,i", "--depth", "7",
             "--n-min", "1", "--n-max", "5"],
            ["bernoulli", "--lambda", "0.8+0.3i", "--frostman"],
        ]
        code = (
            "import json, sys\n"
            "from ssfourier.cli import run\n"
            f"for i, argv in enumerate({commands!r}):\n"
            f"    out = ['--budget', '4096', '--out', {str(tmp_path)!r} + f'/{{i}}.json']\n"
            "    assert run(out + argv) == 0, argv\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"
        assert len(list(tmp_path.glob("*.json"))) == len(commands)

    def test_scan_workers_load_no_process_machinery(self, tmp_path):
        # importing the CLI, and running scan and ek cover on two worker
        # threads, loads neither multiprocessing nor the process pool
        src = str(Path(ssfourier.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        commands = [
            ["scan", "--lambda", "0.5+0.5i", "--T", "24"],
            ["ek", "cover", "--lambda", "0.5+0.5i", "--N", "8", "--epsilon", "0.05"],
        ]
        code = (
            "import json, sys\n"
            "from ssfourier.cli import run\n"
            f"for i, argv in enumerate({commands!r}):\n"
            f"    out = ['--workers', '2', '--out', {str(tmp_path)!r} + f'/{{i}}.json']\n"
            "    assert run(out + argv) == 0, argv\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'multiprocessing'\n"
            "          or m == 'concurrent.futures.process']\n"
            "print(json.dumps(sorted(loaded)))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"
        assert len(list(tmp_path.glob("*.json"))) == len(commands)

    def test_cli_import_builds_no_parser(self):
        # the parser is built on the first run, once: importing the CLI
        # constructs no ArgumentParser, and a second run constructs none
        src = str(Path(ssfourier.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import argparse, io, json\n"
            "from contextlib import redirect_stdout, redirect_stderr\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "from ssfourier.cli import run\n"
            "counts = [len(built)]\n"
            "for _ in range(2):\n"
            "    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):\n"
            "        assert run(['bernoulli', '--lambda', '0.8+0.3i']) == 0\n"
            "    counts.append(len(built))\n"
            "print(json.dumps(counts))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        before, first, second = json.loads(out)
        assert before == 0 and first > 0 and second == first


class TestParserOnce:
    """``run`` reuses one parser, and no call leaves anything to the next."""

    VERIFY = ["ek", "verify", "--lambda", "0.5+0.5i", "--samples", "200", "--N", "8"]
    BOUNDS = ["bounds", "--lambda", "0.5+0.5i", "--p", "0.5,0.5"]

    @staticmethod
    def assert_as_in_a_fresh_process(capsys, argv):
        # same exit code, result bytes and config hash as a new interpreter
        code, out, err = run_cli(capsys, *argv)
        src = str(Path(ssfourier.__file__).resolve().parents[1])
        fresh = subprocess.run([sys.executable, "-m", "ssfourier.cli", *argv],
                               env={**os.environ, "PYTHONPATH": src}, capture_output=True)
        assert code == fresh.returncode == EXIT_OK
        assert out.encode() == fresh.stdout
        hashes = [json.loads(text.strip().splitlines()[-1])["config_hash"]
                  for text in (err, fresh.stderr.decode())]
        assert hashes[0] == hashes[1]

    def test_two_runs_build_one_parser(self, capsys, monkeypatch):
        import ssfourier.cli as cli

        built, build = [], cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            assert run_cli(capsys, *self.BOUNDS)[0] == EXIT_OK
            assert run_cli(capsys, *self.VERIFY)[0] == EXIT_OK
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_global_seed_does_not_carry_over(self, capsys):
        assert strict_json(run_cli(capsys, "--seed", "7", *self.VERIFY)[1])["seed"] == 7
        code, out, _ = run_cli(capsys, *self.VERIFY)
        assert code == EXIT_OK
        assert '"seed":0' in out

    def test_config_does_not_carry_over(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.015}))
        assert run_cli(capsys, "--config", str(cfg), *self.BOUNDS)[0] == EXIT_OK
        self.assert_as_in_a_fresh_process(capsys, self.BOUNDS)

    def test_usage_error_does_not_carry_over(self, capsys):
        code, out, _ = run_cli(capsys, "--seed", "-1", *self.VERIFY, "--samples", "x")
        assert code == EXIT_USAGE and out == ""
        self.assert_as_in_a_fresh_process(capsys, self.VERIFY)


class TestEK:
    def test_verify_clean(self, capsys):
        code, out, _ = run_cli(
            capsys, "ek", "verify", "--lambda", "0.5+0.5i",
            "--samples", "2000", "--N", "12", "--seed", "4",
        )
        assert code == EXIT_OK
        assert json.loads(out)["violations"] == 0

    def test_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "ek", "trace", "--lambda", "0.5+0.5i",
            "--t", "0.3+0.4i", "--N", "5",
        )
        assert code == EXIT_OK
        assert json.loads(out)["r"] == [0, 1, 1, 0, -1]

    @pytest.mark.parametrize("argv", [
        ["trace", "--lambda", "0.5+0.5i", "--t", "0.3", "--N", "3000"],
        ["verify", "--lambda", "0.5+0.5i", "--N", "3000"],
    ], ids=["trace", "verify"])
    def test_digits_past_2_to_the_52_refused_by_the_guard(self, capsys, argv):
        # |lambda|^-2999 overflows a float; the guard compares logarithms,
        # so its own message is reported, not the float power's
        code, out, _ = run_cli(capsys, "ek", *argv)
        assert code == EXIT_DOMAIN
        error = strict_json(out)["error"]
        assert error == {"kind": "OverflowError",
                         "message": "|lambda|^-2999 exceeds the safe digit magnitude 2^52"}

    def test_enumerate_budget_exit(self, capsys):
        code, out, _ = run_cli(
            capsys, "ek", "enumerate", "--lambda", "0.5+0.5i",
            "--eps-tilde", "0.1", "--N", "20",
        )
        assert code == EXIT_BUDGET
        assert json.loads(out)["error"]["kind"] == "budget"

    def test_enumerate_benchmark_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "ek", "enumerate", "--lambda", "0.5+0.5i",
            "--eps-tilde", "0.3", "--N", "13",
        )
        assert code == EXIT_OK
        doc = strict_json(out)
        assert doc["count"] == 101
        assert doc["bound"] == 95578025051374.4

    @pytest.mark.parametrize("lam, et, n, want", [
        ("-0.48063539316653736-0.5433077874891128i", "0.6", "13", 1203),
        ("0.7629538037833957+0.49594059030094007i", "1.0", "14", 801),
    ])
    def test_enumerate_pass_with_no_clipped_child(self, capsys, lam, et, n, want):
        # some frontier pass has every child lying whole in its strip
        code, out, _ = run_cli(
            capsys, "ek", "enumerate", f"--lambda={lam}", "--eps-tilde", et, "--N", n,
        )
        assert code == EXIT_OK
        assert strict_json(out)["count"] == want

    def test_enumerate_node_budget(self, capsys):
        argv = ["ek", "enumerate", "--lambda", "0.5+0.5i", "--eps-tilde", "0.3", "--N", "13"]
        code, out, _ = run_cli(capsys, "--budget", "1", *argv)
        assert code == EXIT_BUDGET
        assert "frontier nodes" in strict_json(out)["error"]["message"]
        assert run_cli(capsys, "--budget", "7709", *argv)[0] == EXIT_OK

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_enumerate_non_finite_eps_tilde_refused(self, capsys, value):
        code, out, _ = run_cli(
            capsys, "ek", "enumerate", "--lambda", "0.5+0.5i",
            "--eps-tilde", value, "--N", "6",
        )
        assert code == EXIT_DOMAIN
        assert strict_json(out)["error"]["kind"] == "DomainError"

    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_verify_needs_a_sample(self, capsys, value):
        code, out, _ = run_cli(
            capsys, "ek", "verify", "--lambda", "0.5+0.5i",
            "--samples", value, "--N", "10",
        )
        assert code == EXIT_DOMAIN
        assert strict_json(out)["error"]["kind"] == "DomainError"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_cover_non_finite_epsilon_refused_before_scan(
        self, capsys, monkeypatch, value
    ):
        def no_scan(*args, **kwargs):
            raise AssertionError("scan started before epsilon was checked")

        # the cover's cells come from scan_blocks, whose bounds and
        # samples are all product-kernel calls
        monkeypatch.setattr(ssfourier.sparse, "scan_blocks", no_scan)
        monkeypatch.setattr(ssfourier.fourier, "_product", no_scan)
        code, out, _ = run_cli(
            capsys, "ek", "cover", "--lambda", "0.5+0.5i",
            "--epsilon", value, "--N", "8",
        )
        assert code == EXIT_DOMAIN
        assert strict_json(out)["error"]["kind"] == "DomainError"

    def test_missing_subcommand_usage(self, capsys):
        code, _, err = run_cli(capsys, "ek", "--lambda", "1")
        assert code == EXIT_USAGE

    def test_global_seed_reaches_verify(self, capsys, tmp_path):
        verify = ["ek", "verify", "--lambda", "0.5+0.5i", "--samples", "500",
                  "--N", "10"]
        outs = []
        for name, argv in (("global", ["--seed", "5", *verify]),
                           ("local", [*verify, "--seed", "5"])):
            path = tmp_path / f"{name}.json"
            assert run_cli(capsys, "--out", str(path), *argv)[0] == EXIT_OK
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["seed"] == 5


class TestPush:
    def test_budget_refusal(self, capsys):
        # 2^12 tower atoms against a budget of 1000: refused before any
        # transform is evaluated
        code, out, _ = run_cli(
            capsys, "--budget", "1000", "push", "--lambda", "0.5+0.5i",
            "--coeffs", "0,0,1", "--radii", "8,16,32", "--directions", "16",
            "--depth", "12",
        )
        assert code == EXIT_BUDGET
        assert json.loads(out)["error"]["kind"] == "budget"

    @pytest.mark.parametrize("argv", [
        ["push", "--lambda", "0.5+0.5i", "--coeffs", "0,0,1", "--radii", "8,16,32",
         "--directions", "16", "--depth", "8"],
        ["bernoulli", "--lambda", "0.8+0.3i", "--frostman"],
    ], ids=["push", "bernoulli"])
    def test_budget_caps_every_tower(self, capsys, monkeypatch, argv):
        built = []
        tower = ssfourier.pushforward.finite_approximation
        levels = ssfourier.pushforward.tower_levels

        def recording(*args, **kwargs):
            mu = tower(*args, **kwargs)
            built.append(mu.n_atoms)
            return mu

        def recording_levels(*args, **kwargs):
            for mu, first in levels(*args, **kwargs):
                built.append(mu.n_atoms)
                yield mu, first

        # the split's levels and the direct sum's tower, and the Frostman tower
        monkeypatch.setattr(ssfourier.pushforward, "finite_approximation", recording)
        monkeypatch.setattr(ssfourier.pushforward, "tower_levels", recording_levels)
        monkeypatch.setattr(ssfourier.dimensions, "finite_approximation", recording)
        code, _, _ = run_cli(capsys, "--budget", "1000", *argv)
        assert code == EXIT_OK
        assert built and max(built) <= 1000

    @pytest.mark.parametrize("argv", [
        ["push", "--lambda", "0.5i", "--digits=-1-1i,-1,-1+1i,-1i,0,1i,1-1i,1,1+1i",
         "--coeffs", "0,0,1", "--radii", "1:8:4", "--directions", "16", "--depth", "6"],
        ["bernoulli", "--lambda", "0.8+0.3i", "--frostman"],
    ], ids=["push", "bernoulli"])
    def test_default_budget_changes_nothing(self, capsys, argv):
        # the Frostman depth comes from min(budget, 2e6): an explicit budget
        # of 1e7, the default, once raised it (frostman_s 1.3010 to 1.5485 on
        # this nine-digit lattice)
        outs = []
        for head in ([], ["--budget", "10000000"]):
            code, out, _ = run_cli(capsys, *head, *argv)
            assert code == EXIT_OK
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("depth", ["-1", "-2"])
    def test_negative_depth_refused(self, capsys, depth):
        code, out, _ = run_cli(
            capsys, "push", "--lambda", "0.5+0.5i", "--coeffs", "0,0,1",
            "--radii", "8,16,32", "--directions", "8", "--depth", depth,
        )
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"]["kind"] == "DomainError"

    @pytest.mark.parametrize("coeffs, radii", [
        ("0,0,1", "1,2,1e308"), ("0.4-0.3i,0.9+0.2i", "1,2,1e308"), ("0,0,1,0.01", "1,2,1e307"),
    ], ids=["z-squared", "affine", "cubic"])
    def test_overflowing_radius_refused(self, capsys, coeffs, radii):
        # these once warned of invalid values, wrote null and exited 0
        code, out, err = run_cli(
            capsys, "--budget", "4096", "push", "--lambda", "0.5+0.5i", "--coeffs", coeffs,
            "--radii", radii, "--directions", "8", "--depth", "6",
        )
        assert code == EXIT_DOMAIN
        error = json.loads(out)["error"]
        assert error["kind"] == "DomainError"
        assert f"radius {float(radii.split(',')[-1])!r} is too large" in error["message"]
        assert "Warning" not in err

    @pytest.mark.parametrize("coeffs", ["0,0,0", "1"])
    def test_constant_map_refused(self, capsys, coeffs):
        # a point mass has no decay, so no exponent may be predicted for it
        code, out, _ = run_cli(
            capsys, "push", "--lambda", "0.5+0.5i", "--coeffs", coeffs,
            "--radii", "1,2,4", "--directions", "4", "--depth", "5",
        )
        assert code == EXIT_DOMAIN
        error = json.loads(out)["error"]
        assert error["kind"] == "DomainError" and "constant map" in error["message"]

    def test_huge_finite_radius_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "--budget", "4096", "push", "--lambda", "0.5+0.5i", "--coeffs", "0,0,1",
            "--radii", "1,2,1e300", "--directions", "8", "--depth", "6",
        )
        assert code == EXIT_OK
        doc = strict_json(out)
        assert None not in doc["annulus_max"] and doc["slope"] is not None

    def test_frostman_independent_of_seed(self, capsys):
        # the largest dyadic cell mass samples nothing
        outs = []
        for seed in ("1", "2", "3"):
            code, out, _ = run_cli(
                capsys, "--seed", seed, "--budget", "4096", "push", "--lambda", "0.5+0.5i",
                "--coeffs", "0,0,1", "--radii", "1,2,4", "--directions", "8", "--depth", "6",
            )
            assert code == EXIT_OK
            outs.append(repr(strict_json(out)["frostman_s"]))
        assert outs[0] == outs[1] == outs[2]

    def test_real_noncollinear_profile(self, capsys):
        code, out, _ = run_cli(
            capsys, "push", "--lambda", "0.5", "--digits", "0,1,i",
            "--coeffs", "0,0,1", "--radii", "1,2,4", "--directions", "8",
            "--depth", "6",
        )
        assert code == EXIT_OK
        assert json.loads(out)["delta_used"] > 0.0


    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_no_directions_refused(self, capsys, value):
        code, out, _ = run_cli(
            capsys, "push", "--lambda", "0.5+0.5i", "--coeffs", "0,0,1",
            "--radii", "1,2,4", "--directions", value, "--depth", "6",
        )
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"]["kind"] == "DomainError"


class TestDimCsv:
    # depth 5 atoms sit 2^-4 apart: the cap leaves the estimators too few
    # levels, while the moment rows need no cap
    ARGV = ["dim", "--lambda", "0.5", "--digits", "0,1,i", "--depth", "5",
            "--n-min", "1", "--n-max", "4"]

    def test_rows_are_the_moments(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", *self.ARGV)
        assert code == EXIT_OK
        mu = finite_approximation(IFSDescriptor(0.5, (0, 1, 1j), (1 / 3,) * 3), 5)
        rows = [line.split(",") for line in out.splitlines()]
        assert rows[0] == ["n", "s_n", "log_s_n"]
        assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4]
        for n, s_n, log_s_n in rows[1:]:
            want = lq_moment(mu, int(n), 2.0)
            assert float(s_n) == want and float(log_s_n) == math.log(want)
        assert run_cli(capsys, *self.ARGV)[0] == EXIT_DOMAIN

    def test_energy_radii_refused(self, capsys):
        code, out, err = run_cli(capsys, "--format", "csv", *self.ARGV,
                                 "--T-values", "2:8:3")
        assert code == EXIT_USAGE and out == "" and "T-values" in err

    @pytest.mark.parametrize("levels", [("3", "2"), ("-1", "4")])
    def test_level_range_refused(self, capsys, levels):
        argv = self.ARGV[:-4] + ["--n-min", levels[0], "--n-max", levels[1]]
        code, out, _ = run_cli(capsys, "--format", "csv", *argv)
        assert code == EXIT_DOMAIN
        assert "n_min" in json.loads(out)["error"]["message"]




class TestDimPinned:
    """dim output bytes, pinned before the nested binning and the mirrored
    energy exponentials; both keep every bit.  The alpha keys are those
    of the self-similar measure's energy through the product kernel, at
    the second-order truncation index with the mean phase."""

    @pytest.mark.parametrize("argv, want", [
        (["--lambda", "0.5", "--digits", "0,1,i,1+i", "--depth", "8",
          "--n-min", "2", "--n-max", "8"],
         '{"dim_inf":{"estimate":2.0,"stderr":4.214684851089404e-08},'
         '"dim_q":{"estimate":1.9212806653765022,"q":2.0,"stderr":0.04339126382849784}}\n'),
        (["--lambda", "0.5", "--digits", "0,1,i", "--depth", "9",
          "--n-min", "1", "--n-max", "8", "--T-values", "2:8:3"],
         '{"alpha":{"dim2_via_alpha":1.5869015925116612,"estimate":0.4130984074883388},'
         '"dim_inf":{"estimate":1.5849625007211656,"stderr":0.0},'
         '"dim_q":{"estimate":1.5849625007211743,"q":2.0,"stderr":0.0}}\n'),
        (["--lambda=0.6+0.5i", "--digits=-1,1", "--depth", "14", "--n-max", "12",
          "--T-values", "2:16:4", "--step", "0.25"],
         '{"alpha":{"dim2_via_alpha":1.995474921314399,"estimate":0.00452507868560103},'
         '"dim_inf":{"estimate":1.5605540606497343,"stderr":0.11773364159907602},'
         '"dim_q":{"estimate":1.8028257911401733,"q":2.0,"stderr":0.07572250017412277}}\n'),
    ], ids=["square", "gasket", "complex-bernoulli"])
    def test_bytes(self, capsys, argv, want):
        code, out, _ = run_cli(capsys, "dim", *argv)
        assert code == EXIT_OK
        assert out == want


class TestDimOverflow:
    """An atom or a level whose numbers overflow a float is a DomainError that names it."""

    @pytest.mark.parametrize("rows, cause", [
        ("0,0,0.25\n0.001,0,0.25\n0,0.002,0.25\n1e308,0,0.25\n", "squared atom distance"),
        ("0,1e307,1\n", "cell index"),
    ], ids=["far-atom", "far-dirac"])
    def test_far_atoms(self, capsys, tmp_path, rows, cause):
        path = tmp_path / "far.csv"
        path.write_text("re,im,weight\n" + rows)
        code, out, _ = run_cli(capsys, "dim", "--measure-csv", str(path), "--n-min", "0",
                               "--n-max", "9")
        assert code == EXIT_DOMAIN
        error = strict_json(out)["error"]
        assert error["kind"] == "DomainError" and f"{cause} overflows" in error["message"]

    def test_level_past_1023(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "dim", "--lambda", "0.5",
                               "--digits", "0,1", "--depth", "4", "--n-min", "0",
                               "--n-max", "1100")
        assert code == EXIT_DOMAIN
        error = strict_json(out)["error"]
        assert error["kind"] == "DomainError" and "above 1023" in error["message"]


class TestDimEnergy:
    def test_alpha_of_ifs_input_does_not_depend_on_depth(self, capsys):
        # --depth sets the tower of dim_q and dim_inf alone
        alphas = []
        for depth in ("7", "9"):
            code, out, _ = run_cli(capsys, "dim", "--lambda", "0.5", "--digits", "0,1,i",
                                   "--depth", depth, "--n-min", "1", "--n-max", "5",
                                   "--T-values", "2:8:3")
            assert code == EXIT_OK
            alphas.append(json.dumps(strict_json(out)["alpha"], sort_keys=True))
        assert alphas[0] == alphas[1]

    def test_alpha_of_measure_csv_is_the_atoms(self, capsys, tmp_path, sierpinski):
        mu = finite_approximation(sierpinski, 8)
        path = tmp_path / "mu.csv"
        path.write_text(measure_to_csv(mu))
        code, out, _ = run_cli(capsys, "dim", "--measure-csv", str(path), "--n-min", "1",
                               "--n-max", "4", "--T-values", "2:8:3")
        assert code == EXIT_OK
        alpha, via = alpha_estimate(mu, [2.0, 4.0, 8.0], 0.5)
        assert same_repr(strict_json(out)["alpha"], {"estimate": alpha, "dim2_via_alpha": via})

    @pytest.mark.parametrize("source", ["ifs", "csv"])
    def test_radius_without_a_midpoint_refused(self, capsys, tmp_path, sierpinski, source):
        # no midpoint of the step-0.5 lattice lies inside |xi| < 0.3, so the
        # energy would be an empty 0; once a math domain error traceback
        if source == "ifs":
            argv = ["--lambda", "0.5", "--digits", "0,1,i", "--depth", "9"]
        else:
            path = tmp_path / "mu.csv"
            path.write_text(measure_to_csv(finite_approximation(sierpinski, 8)))
            argv = ["--measure-csv", str(path)]
        code, out, _ = run_cli(capsys, "dim", *argv, "--n-min", "1", "--n-max", "5",
                               "--T-values", "0.3:1.2:3")
        assert code == EXIT_DOMAIN
        error = strict_json(out)["error"]
        assert error["kind"] == "DomainError" and "T = 0.3 at step 0.5" in error["message"]

    @pytest.mark.parametrize("step", ["nan", "0", "-0.25", "0.75", "inf"])
    def test_bad_step_refused(self, capsys, step):
        code, out, _ = run_cli(capsys, *DIM, "--T-values", "2:8:3",
                               "--step", step)
        assert code == EXIT_DOMAIN
        assert strict_json(out)["error"]["kind"] == "DomainError"

    def test_oversized_lattice_is_budget_error(self, capsys):
        # a (2 * 4e5 / 0.5)^2 lattice: refused before it is allocated
        code, out, _ = run_cli(capsys, *DIM, "--T-values", "1e5:4e5:3", "--step", "0.5")
        assert code == EXIT_BUDGET
        assert strict_json(out)["error"]["kind"] == "budget"


class TestMalformedInputFiles:
    """A malformed input file ends in an exit code and a message, not a traceback."""

    @pytest.mark.parametrize("text", ["{epsilon: 0.02}", "[0.02]"], ids=["not_json", "list"])
    def test_bad_config_is_usage_error(self, capsys, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "--config", str(cfg), *BOUNDS)
        assert code == EXIT_USAGE and out == "" and "config file" in err

    @pytest.mark.parametrize("text", [
        '{"lambda": [0.5, 0.5], "probs": [0.5, 0.5]}', "lambda = 0.5+0.5i",
        '{"lambda": [0.5, 0.5], "digits": [[1e400, 0], [1, 0]], "probs": [0.5, 0.5]}',
    ], ids=["no_digits", "not_json", "inf_digit"])
    def test_bad_ifs_file_is_domain_error(self, capsys, tmp_path, text):
        path = tmp_path / "ifs.json"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "eval", "--ifs", str(path), "--xi", "1")
        assert code == EXIT_DOMAIN
        assert strict_json(out)["error"]["kind"] == "DomainError"

    def test_short_csv_row_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "mu.csv"
        path.write_text("re,im,weight\n0.0,0.0,0.5\n1.0,0.5\n")
        code, out, _ = run_cli(capsys, "dim", "--measure-csv", str(path))
        assert code == EXIT_DOMAIN
        assert strict_json(out)["error"]["kind"] == "DomainError"


    @pytest.mark.parametrize("argv", [
        ["eval", "--ifs", "{path}", "--xi", "1"],
        ["dim", "--measure-csv", "{path}"],
    ], ids=["eval_ifs", "dim_csv"])
    def test_non_utf8_file_is_domain_error(self, capsys, tmp_path, argv):
        path = tmp_path / "input"
        path.write_bytes(b"\xff\xfe" + "re,im,weight\n".encode("utf-16-le"))
        argv = [str(path) if a == "{path}" else a for a in argv]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_DOMAIN
        error = strict_json(out)["error"]
        assert error["kind"] == "DomainError" and "UTF-8" in error["message"]


class TestStrictJson:
    # criterion 12's JSON invocations
    @pytest.mark.parametrize("argv", [
        ["eval", "--lambda", "0.5+0.5i", "--xi", "0.3+0.1i,2,5.5-1i"],
        ["bounds", "--lambda", "0.5+0.5i", "--p", "0.5,0.5", "--epsilon", "0.01",
         "--kappa", "0.5", "--covering-N", "8"],
        ["ek", "cover", "--lambda", "0.5+0.5i", "--N", "8", "--epsilon", "0.05"],
        ["dim", "--lambda", "0.5", "--digits", "0,1,i", "--depth", "7",
         "--n-min", "1", "--n-max", "5"],
        ["push", "--lambda", "0.5+0.5i", "--coeffs", "0,0,1", "--radii", "8,16,32",
         "--directions", "16", "--depth", "8"],
        ["bernoulli", "--lambda", "0.92+0.1i"],
    ], ids=["eval", "bounds", "cover", "dim", "push", "bernoulli"])
    def test_parses_strictly(self, capsys, argv):
        code, out, _ = run_cli(capsys, "--seed", "7", *argv)
        assert code == EXIT_OK
        strict_json(out)

    def test_non_finite_written_as_null(self, capsys):
        # the covering bound is infinite where eps-tilde leaves (0, 1)
        code, out, _ = run_cli(capsys, "ek", "cover", "--lambda", "0.5+1e-13i",
                               "--epsilon", "0.05", "--N", "4")
        assert code == EXIT_OK
        doc = strict_json(out)
        assert doc["bound_count"] is None
        report = covering_report(IFSDescriptor(0.5 + 1e-13j, (-1.0, 1.0), (0.5, 0.5)),
                                 0.05, 4).to_json()
        assert report["bound_count"] == math.inf
        assert same_repr(doc, dict(report, bound_count=None))

    def test_affine_push_keys(self, capsys):
        # an affine map has min |F''| = 0, which inv_lipschitz inverted
        code, out, _ = run_cli(capsys, "push", "--lambda", "0.5+0.5i", "--coeffs",
                               "0.4-0.3i,0.9+0.2i", "--radii", "8,16,32",
                               "--directions", "16", "--depth", "8")
        assert code == EXIT_OK
        assert sorted(strict_json(out)) == [
            "annulus_max", "approx_depth", "delta_used", "directions", "epsilon_used",
            "frostman_s", "max_abs_f1", "min_abs_f2", "predicted_exponent", "radii",
            "slope", "stderr",
        ]


BOUNDS = ["bounds", "--lambda", "0.5+0.5i", "--p", "0.5,0.5"]
SWEEP = BOUNDS + ["--sweep", "1e-4:1e-3:3"]
EVAL = ["eval", "--lambda", "0.5+0.5i", "--xi", "1"]
TRACE = ["ek", "trace", "--lambda", "0.5+0.5i", "--t", "0.3+0.4i", "--N", "5"]
DIM = ["dim", "--lambda", "0.5", "--digits", "0,1,i", "--depth", "7",
       "--n-min", "1", "--n-max", "5"]
PUSH = ["push", "--lambda", "0.5+0.5i", "--coeffs", "0,0,1", "--radii", "1,2,4",
        "--directions", "8", "--depth", "6"]
BERNOULLI = ["bernoulli", "--lambda", "0.92+0.1i"]


class TestFormats:
    @pytest.mark.parametrize("fmt, argv", [
        ("bin", EVAL), ("csv", EVAL), ("bin", BOUNDS), ("csv", BOUNDS),
        ("bin", SWEEP), ("bin", TRACE), ("csv", TRACE), ("bin", DIM),
        ("bin", PUSH), ("bin", BERNOULLI), ("csv", BERNOULLI),
    ], ids=["eval-bin", "eval-csv", "bounds-bin", "bounds-csv", "sweep-bin",
            "ek-bin", "ek-csv", "dim-bin", "push-bin", "bernoulli-bin",
            "bernoulli-csv"])
    def test_unwritable_format_refused(self, capsys, fmt, argv):
        code, out, err = run_cli(capsys, "--budget", "4096", "--format", fmt, *argv)
        assert code == EXIT_USAGE and out == ""
        assert f"cannot write --format {fmt}" in err

    def test_sweep_writes_csv_under_both(self, capsys):
        code, default, _ = run_cli(capsys, *SWEEP)
        assert code == EXIT_OK
        code, csv, _ = run_cli(capsys, "--format", "csv", *SWEEP)
        assert code == EXIT_OK and csv == default
        assert default.startswith("lambda_re,lambda_im,epsilon,delta,valid\n")


class TestScan:
    def test_binary_to_stdout(self, capsysbinary):
        assert run(["--format", "bin", "scan", "--lambda", "0.5+0.5i", "--T", "3"]) == EXIT_OK
        ifs = IFSDescriptor(0.5 + 0.5j, (-1.0, 1.0), (0.5, 0.5))
        assert capsysbinary.readouterr().out == scanfield_to_binary(grid_scan(ifs, 3))

    def test_budget_refusal(self, capsys):
        code, out, _ = run_cli(
            capsys, "--budget", "10", "scan", "--lambda", "0.5+0.5i", "--T", "3",
        )
        assert code == EXIT_BUDGET
        assert json.loads(out)["error"]["kind"] == "budget"

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--lambda", "0.5+0.5i", "--T", "1e9"],
            ["ek", "cover", "--lambda", "0.5+0.5i", "--epsilon", "0.05", "--N", "60"],
            ["scan", "--lambda", "0.5+0.5i", "--T", "1e200"],
            ["ek", "cover", "--lambda", "0.5+0.5i", "--epsilon", "0.05", "--N", "3000"],
        ],
        ids=["scan-T-1e9", "cover-N-60", "scan-T-1e200", "cover-N-3000"],
    )
    def test_huge_disk_refused_before_cells(self, capsys, argv):
        # pi T^2 k^2 sampled points at least: refused with no O(T^2) array,
        # also where pi (T k)^2, or T = |lambda|^-N itself, overflows a float
        code, out, _ = run_cli(capsys, "--budget", "1000", *argv)
        assert code == EXIT_BUDGET
        assert json.loads(out)["error"]["kind"] == "budget"


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "bounds", "--nonsense", "1")
        assert code == EXIT_USAGE

    def test_no_subcommand(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_bad_complex(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--lambda", "zzz", "--xi", "0")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--lambda", "0.5+0.5i", "--p", "abc"),
            ("eval", "--lambda", "0.5+0.5i", "--probs", "x,y", "--xi", "1"),
        ],
    )
    def test_bad_number_list(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == EXIT_USAGE

    def test_scan_radius_not_a_number(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--lambda", "0.5+0.5i", "--T", "nan")
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"]["kind"] == "DomainError"

    def test_bare_ek(self, capsys):
        code, out, err = run_cli(capsys, "ek")
        assert code == EXIT_USAGE and out == "" and "ek needs one of" in err


def trivial_bound(doc):
    return doc["delta"] == 2.0 and doc["valid"] is False and doc["epsilon_tilde"] is None


def names_radius(doc):
    return doc["error"]["kind"] == "DomainError" and "support radius" in doc["error"]["message"]


def over_budget(doc):
    return doc["error"]["kind"] == "budget"


def names_variance(doc):
    return (doc["error"]["kind"] == "DomainError"
            and "variance overflows a float" in doc["error"]["message"])


# digits whose squared deviation 1e600 overflows a float
WIDE_DIGITS = ["--lambda", "0.5+0.5i", "--digits", "1e300,-1e300"]


class TestReproducers:
    """Inputs that once ended in a traceback: each ends in one JSON document."""

    @pytest.mark.parametrize("argv, want_code, check", [
        # eta rounds to 0, so eps_tilde is far above 1: the trivial record
        pytest.param(["bounds", "--lambda", "1e-5+1e-5i", "--p", "0.5,0.5",
                      "--epsilon", "0.01"], EXIT_OK, trivial_bound, id="bounds-complex-eta-0"),
        pytest.param(["bounds", "--lambda", "1e-9", "--p", "0.2,0.3,0.5",
                      "--regime", "higher_dim", "--epsilon", "0.01"],
                     EXIT_OK, trivial_bound, id="bounds-higher-dim-eta-0"),
        pytest.param(["bernoulli", "--lambda", "0.72+0.01i", "--p-bias", "1e-300"], EXIT_OK,
                     lambda doc: doc["kappa"] == 2.0 + doc["sigma"]
                     and "epsilon_tilde outside (0, 1)" in doc["note"], id="bernoulli-eta-0"),
        # terabytes of candidate children, or of product level tables
        pytest.param(["ek", "enumerate", "--lambda", "1e-5+1e-5i", "--eps-tilde", "0.5",
                      "--N", "3"], EXIT_BUDGET, over_budget, id="enumerate-wide-pass"),
        pytest.param(["eval", "--lambda", "0.99999999999", "--xi", "1e6"], EXIT_BUDGET,
                     over_budget, id="eval-factor-count"),
        pytest.param(["dim", "--lambda", "0.5", "--digits", "1e308,-1e308", "--depth", "3"],
                     EXIT_DOMAIN, names_radius, id="dim-radius-overflows"),
        pytest.param(["eval", *WIDE_DIGITS, "--xi", "1"], EXIT_DOMAIN, names_variance,
                     id="eval-variance-overflows"),
        pytest.param(["scan", *WIDE_DIGITS, "--T", "4"], EXIT_DOMAIN, names_variance,
                     id="scan-variance-overflows"),
        pytest.param(["ek", "cover", *WIDE_DIGITS, "--N", "8", "--epsilon", "0.05"],
                     EXIT_DOMAIN, names_variance, id="cover-variance-overflows"),
        # |c_1| is past a float, where abs() raises OverflowError
        pytest.param(["push", "--lambda", "0.5+0.5i", "--coeffs", "0,1.5e308+1.5e308i",
                      "--radii", "1,2,4", "--directions", "8", "--depth", "4"], EXIT_DOMAIN,
                     lambda doc: doc["error"]["kind"] == "DomainError"
                     and "overflow a float" in doc["error"]["message"], id="push-modulus-overflows"),
    ])
    def test_ends_in_one_json_document(self, capsys, argv, want_code, check):
        code, out, _ = run_cli(capsys, *argv)
        assert code == want_code
        assert check(strict_json(out))  # json.loads refuses a second document


SQUARE = ["dim", "--lambda", "0.5", "--digits", "0,1,i,1+i", "--depth", "8"]


class TestParameterRefusals:
    """A tol, q, weight, map coefficient, frequency or trace point outside
    its domain ends in exit 1 and an error document.

    NaN passes a ``tol <= 0`` test, and sum mu(Q)^q underflows to 0 at
    q = 300 on the square's level-4 cells (256 cells of mass 2^-8).
    """

    @pytest.mark.parametrize("argv", [
        ["eval", "--lambda", "0.5+0.5i", "--xi", "5,7.25", "--tol", "nan"],
        ["eval", "--lambda", "0.5+0.5i", "--xi", "5", "--tol", "inf"],
        ["scan", "--lambda", "0.5+0.5i", "--T", "4", "--tol", "nan"],
        ["ek", "cover", "--lambda", "0.5+0.5i", "--N", "8", "--epsilon", "0.05",
         "--tol", "nan"],
        [*SQUARE, "--q", "nan"],
        ["--format", "csv", *SQUARE, "--q", "nan"],
        [*SQUARE, "--q", "300"],
        ["--format", "csv", *SQUARE, "--q", "300"],
        [*SQUARE, "--q", "inf"],
        [*SQUARE, "--q", "1e400"],
        ["eval", "--lambda", "0.5+0.5i", "--probs", "nan,0.5", "--xi", "1"],
        ["bounds", "--lambda", "0.5+0.5i", "--p", "nan,0.5"],
        ["push", "--lambda", "0.5+0.5i", "--coeffs", "0,nan", "--radii", "1:4:3",
         "--depth", "4", "--directions", "4"],
        ["eval", "--lambda", "0.5+0.5i", "--xi", "nan"],
        ["eval", "--lambda", "0.5+0.5i", "--xi", "2,1e400"],
        ["eval", "--lambda", "0.5+0.5i", "--xi", "1e308"],
        ["ek", "trace", "--lambda", "0.5+0.5i", "--t", "nan", "--N", "5"],
    ], ids=["eval-tol-nan", "eval-tol-inf", "scan-tol-nan", "cover-tol-nan",
            "dim-q-nan", "dim-csv-q-nan", "dim-q-300", "dim-csv-q-300", "dim-q-inf",
            "dim-q-1e400", "eval-probs-nan", "bounds-p-nan", "push-coeffs-nan",
            "eval-xi-nan", "eval-xi-1e400", "eval-xi-1e308", "trace-t-nan"])
    def test_refused(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_DOMAIN
        assert strict_json(out)["error"]["kind"] == "DomainError"

    @pytest.mark.parametrize("argv", [
        ["eval", "--lambda", "0.5+0.5i", "--xi", "5,7.25", "--tol", "1e-13"],
        ["scan", "--lambda", "0.5+0.5i", "--T", "4", "--tol", "5e-13"],
        ["ek", "cover", "--lambda", "0.5+0.5i", "--N", "8", "--epsilon", "0.05",
         "--tol", "9.99e-13"],
    ], ids=["eval", "scan", "cover"])
    def test_tol_below_the_rounding_floor(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_DOMAIN
        error = strict_json(out)["error"]
        assert error["kind"] == "DomainError"
        assert "rounding floor 1e-12" in error["message"]
        # the --tol value comes last; the floor itself is accepted
        assert run_cli(capsys, *argv[:-1], "1e-12")[0] == EXIT_OK


class TestFileErrors:
    """A file that cannot be opened ends in exit 1 and an error document."""

    def test_out_into_missing_directory(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "--out", str(tmp_path / "missing" / "b.json"), *BOUNDS
        )
        assert code == EXIT_DOMAIN and err == ""
        assert strict_json(out)["error"]["kind"] == "FileNotFoundError"

    @pytest.mark.parametrize("argv", [
        ["eval", "--ifs", "{dir}", "--xi", "1"],
        ["dim", "--measure-csv", "{dir}"],
        ["--config", "{dir}", *BOUNDS],
    ], ids=["ifs", "measure-csv", "config"])
    def test_directory_as_input(self, capsys, tmp_path, argv):
        code, out, _ = run_cli(capsys, *[str(tmp_path) if a == "{dir}" else a for a in argv])
        assert code == EXIT_DOMAIN
        assert strict_json(out)["error"]["kind"] == "IsADirectoryError"


class TestRadii:
    BAD = ["0,1,2", "2:8:1", "2:8", "-1,2", "1:2:3:4", "a,b", "2:x:3", ""]

    @pytest.mark.parametrize("text", BAD)
    def test_dim_T_values_refused(self, capsys, text):
        code, out, err = run_cli(
            capsys, "dim", "--lambda", "0.5", "--digits", "0,1,i", "--depth", "7",
            "--n-min", "1", "--n-max", "4", "--T-values", text,
        )
        assert code == EXIT_USAGE and out == "" and "usage error" in err

    @pytest.mark.parametrize("text", BAD)
    def test_push_radii_refused(self, capsys, text):
        code, out, _ = run_cli(
            capsys, "push", "--lambda", "0.5+0.5i", "--coeffs", "0,0,1",
            "--radii", text,
        )
        assert code == EXIT_USAGE and out == ""

    def test_geometric_range_unchanged(self):
        ratio = (16.0 / 1.0) ** (1.0 / (9 - 1))
        assert _parse_radii("1:16:9") == [1.0 * ratio**k for k in range(9)]
        assert _parse_radii("2,4.5, 8") == [2.0, 4.5, 8.0]


class TestOutputsAndConfig:
    def test_out_file_and_metadata_separated(self, capsys, tmp_path):
        out_path = tmp_path / "bound.json"
        code, out, err = run_cli(
            capsys, "--out", str(out_path), "bounds", "--lambda", "0.5+0.5i",
            "--p", "0.5,0.5", "--epsilon", "0.01",
        )
        assert code == EXIT_OK and out == ""
        doc = json.loads(out_path.read_text())
        assert doc["branching"] == 4
        assert "wall_time_s" in json.loads(err.strip().splitlines()[-1])

    def test_config_file_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.015}))
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "bounds", "--lambda", "0.5+0.5i",
            "--p", "0.5,0.5",
        )
        assert code == EXIT_OK
        assert json.loads(out)["epsilon"] == 0.015

    def test_config_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilonn": 3}))
        code, _, err = run_cli(
            capsys, "--config", str(cfg), "bounds", "--lambda", "0.5+0.5i",
            "--p", "0.5,0.5",
        )
        assert code == EXIT_USAGE
        assert "epsilonn" in err

    def test_config_values_parsed_like_flags(self, capsys, tmp_path):
        base = ("bounds", "--lambda", "0.5+0.5i", "--p", "0.5,0.5")
        code, want, _ = run_cli(capsys, *base, "--epsilon", "0.02")
        assert code == EXIT_OK
        cfg = tmp_path / "cfg.json"
        for value in ("0.02", 0.02):
            cfg.write_text(json.dumps({"epsilon": value}))
            code, out, _ = run_cli(capsys, "--config", str(cfg), *base)
            assert code == EXIT_OK and out == want

    @pytest.mark.parametrize("doc", [
        {"regime": "bogus"}, {"epsilon": "abc"}, {"epsilon": True},
        {"d": 3.5}, {"kappa": None},
    ])
    def test_config_bad_value_is_usage_error(self, capsys, tmp_path, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "--config", str(cfg), "bounds", "--lambda", "0.5+0.5i",
            "--p", "0.5,0.5",
        )
        assert code == EXIT_USAGE
        assert next(iter(doc)) in err

    def test_config_switch_needs_boolean(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        argv = ("--config", str(cfg), "bernoulli", "--lambda", "0.8+0.3i")
        cfg.write_text(json.dumps({"unbiased": "no"}))
        assert run_cli(capsys, *argv)[0] == EXIT_USAGE
        cfg.write_text(json.dumps({"unbiased": True}))
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert out == run_cli(capsys, "bernoulli", "--lambda", "0.8+0.3i",
                              "--unbiased")[1]

    def test_config_hash_follows_file_contents(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        hashes = []
        for eps in (0.015, 0.02, 0.015):
            cfg.write_text(json.dumps({"epsilon": eps}))
            code, _, err = run_cli(
                capsys, "--config", str(cfg), "bounds", "--lambda", "0.5+0.5i",
                "--p", "0.5,0.5",
            )
            assert code == EXIT_OK
            hashes.append(json.loads(err.strip().splitlines()[-1])["config_hash"])
        assert hashes[0] != hashes[1] and hashes[0] == hashes[2]

    def test_scan_formats(self, capsys, tmp_path):
        for fmt, checker in (
            ("csv", lambda b: b.startswith(b"i,j,max_abs_muhat")),
            ("bin", lambda b: b.startswith(b"SSFGRID1")),
        ):
            path = tmp_path / f"scan.{fmt}"
            code, _, _ = run_cli(
                capsys, "--format", fmt, "--out", str(path), "scan",
                "--lambda", "0.5+0.5i", "--T", "2", "--subgrid-k", "2",
            )
            assert code == EXIT_OK
            assert checker(path.read_bytes())

    def test_bernoulli(self, capsys):
        code, out, _ = run_cli(
            capsys, "bernoulli", "--lambda", "0.92+0.1i",
        )
        doc = json.loads(out)
        assert code == EXIT_OK and doc["dim2_lower"] <= 2.0

    def test_dim_subcommand(self, capsys):
        code, out, _ = run_cli(
            capsys, "dim", "--lambda", "0.5", "--digits", "0,1,i",
            "--depth", "8", "--n-min", "1", "--n-max", "6",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert abs(doc["dim_q"]["estimate"] - 1.585) < 0.1

    def test_dim_from_measure_csv(self, capsys, tmp_path):
        ifs = IFSDescriptor(0.5, (0.0, 1.0, 1j), (1 / 3, 1 / 3, 1 / 3))
        path = tmp_path / "mu.csv"
        path.write_text(measure_to_csv(finite_approximation(ifs, 8)))
        code, out, _ = run_cli(
            capsys, "dim", "--measure-csv", str(path),
            "--n-min", "1", "--n-max", "6",
        )
        assert code == EXIT_OK
        assert abs(json.loads(out)["dim_q"]["estimate"] - 1.585) < 0.1


class TestWorkerDeterminism:
    def test_scan_bytes_identical(self, capsys, tmp_path):
        paths = []
        for workers in (1, 8):
            path = tmp_path / f"scan_w{workers}.csv"
            code, _, _ = run_cli(
                capsys, "--format", "csv", "--out", str(path),
                "--workers", str(workers), "scan",
                "--lambda", "0.5+0.5i", "--T", "4",
            )
            assert code == EXIT_OK
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    @pytest.mark.parametrize("value", ["-3", "0", "abc", "2.5"])
    def test_bad_worker_flag_refused(self, capsys, value):
        code, out, err = run_cli(
            capsys, "--workers", value, "eval", "--lambda", "0.5+0.5i", "--xi", "1",
        )
        assert code == EXIT_USAGE and out == ""
        assert "positive integer" in err


class TestSeed:
    """A seed is a non-negative integer, on the command line and in --config."""

    PUSH = ["push", "--lambda", "0.5+0.5i", "--coeffs", "0,0,1", "--radii", "1:4:3",
            "--depth", "4", "--directions", "4"]
    FROSTMAN = ["bernoulli", "--lambda", "0.8+0.3i", "--frostman"]
    VERIFY = ["ek", "verify", "--lambda", "0.5+0.5i", "--samples", "10", "--N", "6"]

    @pytest.mark.parametrize("argv", [
        ["--seed", "-1", *PUSH],
        ["--seed", "-1", *FROSTMAN],
        ["--seed", "-1", *VERIFY],
        [*VERIFY, "--seed", "-1"],
        [*VERIFY, "--seed", "2.5"],
    ], ids=["push", "frostman", "verify-global", "verify-local", "verify-fraction"])
    def test_bad_seed_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert "non-negative integer" in err

    @pytest.mark.parametrize("argv", [PUSH, FROSTMAN, VERIFY],
                             ids=["push", "frostman", "verify"])
    def test_negative_config_seed_refused(self, capsys, tmp_path, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
        assert code == EXIT_USAGE and out == ""
        assert "seed" in err

    def test_zero_seed_accepted(self, capsys):
        assert run_cli(capsys, "--seed", "0", *self.VERIFY)[0] == EXIT_OK


class TestBudget:
    """A budget is a positive integer, on the command line and in --config."""

    SCAN = ["scan", "--lambda", "0.5+0.5i", "--T", "4"]
    DIM = ["dim", "--lambda", "0.5", "--digits", "0,1", "--depth", "4"]

    @pytest.mark.parametrize("value", ["-1", "0", "2.5"])
    @pytest.mark.parametrize("argv", [SCAN, DIM], ids=["scan", "dim"])
    def test_refused(self, capsys, value, argv):
        code, out, err = run_cli(capsys, "--budget", value, *argv)
        assert code == EXIT_USAGE and out == ""
        assert "positive integer" in err

    @pytest.mark.parametrize("value", [-1, 0])
    def test_config_refused(self, capsys, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget": value}))
        code, out, err = run_cli(capsys, "--config", str(cfg), *self.DIM)
        assert code == EXIT_USAGE and out == ""
        assert "budget" in err

    def test_one_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "--budget", "1", *self.SCAN)
        assert code == EXIT_BUDGET and strict_json(out)["error"]["kind"] == "budget"


class TestRealLambdaRule:
    """One rule for a real contraction: |Im lambda| <= 1e-14."""

    @staticmethod
    def argvs(lam):
        return [
            ["ek", "trace", "--lambda", lam, "--t", "0.3+0.4i", "--N", "5"],
            ["ek", "enumerate", "--lambda", lam, "--eps-tilde", "0.3", "--N", "6"],
            ["ek", "verify", "--lambda", lam, "--samples", "100", "--N", "10"],
            ["bounds", "--lambda", lam, "--p", "0.5,0.5", "--regime", "complex",
             "--covering-N", "8"],
        ]

    @pytest.mark.parametrize("index", range(4), ids=["trace", "enumerate", "verify",
                                                      "bounds"])
    def test_near_real_refused(self, capsys, index):
        code, out, _ = run_cli(capsys, *self.argvs("0.5+1e-15i")[index])
        assert code == EXIT_DOMAIN
        assert strict_json(out)["error"]["kind"] == "RegimeError"

    def test_near_real_cover_refused(self, capsys):
        code, out, _ = run_cli(capsys, "ek", "cover", "--lambda", "0.5+1e-15i",
                               "--epsilon", "0.05", "--N", "4")
        assert code == EXIT_DOMAIN
        assert strict_json(out)["error"]["kind"] == "RegimeError"

    def test_small_imaginary_part_accepted(self, capsys):
        lam = "0.5+1e-13i"
        cover = ["ek", "cover", "--lambda", lam, "--epsilon", "0.05", "--N", "4"]
        for argv in self.argvs(lam) + [cover]:
            code, out, _ = run_cli(capsys, *argv)
            assert code == EXIT_OK, argv
            assert "error" not in json.loads(out)


class TestLibraryAgreement:
    """CLI outputs equal to their library calls, floats by repr."""

    IFS = IFSDescriptor(0.5 + 0.5j, (-1.0, 1.0), (0.5, 0.5))

    def test_scan_json(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--lambda", "0.5+0.5i", "--T", "3",
                               "--subgrid-k", "2")
        assert code == EXIT_OK
        field = grid_scan(self.IFS, 3.0, 2, 1e-9)
        want = {"T": 3.0, "subgrid_k": 2,
                "cells": [[i, j, v] for (i, j), v in field.cells.items()]}
        assert same_repr(strict_json(out), want)

    def test_push_csv(self, capsys):
        code, out, _ = run_cli(capsys, "--budget", "4096", "--format", "csv", *PUSH)
        assert code == EXIT_OK
        prof = decay_profile(AnalyticMap((0, 0, 1)), self.IFS, [1.0, 2.0, 4.0],
                             directions=8, approx_depth=6, atom_budget=4096)
        rows = [
            f"{t!r},{v!r},{prof.predicted_exponent!r}"
            for t, v in zip(prof.radii, prof.annulus_max)
        ]
        assert out == "\n".join(["T,max_abs_ft,predicted_exponent", *rows]) + "\n"

    def test_dim_energy_radii(self, capsys):
        code, out, _ = run_cli(capsys, *DIM, "--T-values", "2:8:3")
        assert code == EXIT_OK
        ifs = IFSDescriptor(0.5, (0, 1, 1j), (1 / 3,) * 3)
        alpha, via = alpha_estimate(ifs, [2.0, 4.0, 8.0], 0.5)
        assert same_repr(strict_json(out)["alpha"],
                         {"estimate": alpha, "dim2_via_alpha": via})

    def test_ifs_file(self, capsys, tmp_path):
        path = tmp_path / "ifs.json"
        path.write_text(json.dumps(self.IFS.to_json()))
        code, out, _ = run_cli(capsys, "eval", "--ifs", str(path), "--xi", "1.5-2i")
        assert code == EXIT_OK
        value = complex(mu_hat(self.IFS, [1.5 - 2j], 1e-12)[0])
        want = {"results": [{"xi": [1.5, -2.0], "mu_hat": [value.real, value.imag],
                             "abs": abs(value)}]}
        assert same_repr(strict_json(out), want)
        code, out, _ = run_cli(capsys, "ek", "cover", "--ifs", str(path),
                               "--epsilon", "0.05", "--N", "4")
        assert code == EXIT_OK
        assert same_repr(strict_json(out),
                         covering_report(self.IFS, 0.05, 4).to_json())

    @pytest.mark.parametrize("argv", [
        ["eval", "--xi", "1"],
        ["ek", "cover", "--epsilon", "0.05", "--N", "4"],
    ], ids=["eval", "cover"])
    def test_missing_lambda_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == "" and "need --lambda" in err

    def test_bounds_higher_dim(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--lambda", "0.5", "--p", "0.2,0.3,0.5",
                               "--regime", "higher_dim")
        assert code == EXIT_OK
        want = delta_higherdim(0.5, (0.2, 0.3, 0.5), 0.01, 3).to_json()
        assert same_repr(strict_json(out), want)

    def test_bounds_d_flag_gone(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--lambda", "0.5", "--p", "0.2,0.3,0.5",
                                 "--regime", "higher_dim", "--d", "3")
        assert code == EXIT_USAGE and out == "" and "--d" in err

    def test_bernoulli_without_frostman_stage(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "--lambda", "0.75i")
        assert code == EXIT_OK
        doc = strict_json(out)
        assert "Frostman stage unavailable" in doc["note"]
        assert same_repr(doc, bernoulli_dim_lower(0.75j, 0.5).to_json())

    @pytest.mark.parametrize("lam", ["nan+0.1i", "0.9+nani"])
    def test_bernoulli_nan_lambda_is_a_domain_error(self, capsys, lam):
        code, out, _ = run_cli(capsys, "bernoulli", "--lambda", lam)
        assert code == EXIT_DOMAIN
        assert strict_json(out)["error"] == {
            "kind": "DomainError", "message": "need 0 < |lambda| < 1"}
