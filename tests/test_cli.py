"""Command-line interface: config validation, artifacts, exit codes."""

import csv
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtq import cli, errors, parallel, transforms
from rtq.decomposition import _BLOCK, PAIR_TARGETS, SCALAR_TARGETS, DecompositionSampler
from rtq.errors import BadParam, RecursionDepthExceeded
from rtq.simulator import TARGET_STATES, simulate


def _base_config(**overrides):
    cfg = {
        "model": {
            "lam": 1.0, "q": 0.5, "mu": 1.0,
            "dist1": {"kind": "pareto", "index": 2.5, "mean": 0.6},
            "dist2": {"kind": "exponential", "mean": 0.3},
        },
        "sim": {"max_events": 40_000},
        "inversion": {"n": 60, "radius": 0.8},
        "verify": {},
        "seed": 3,
        "out": "unused",
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture
def write_config(tmp_path):
    def _write(cfg, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    return _write


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _csv_writer_text(header, rows):
    """The reference text of an artifact: what csv.writer writes."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _src_env():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


class TestConfigValidation:
    def test_missing_file(self, tmp_path):
        assert cli.main(["analyze", "--config", str(tmp_path / "nope.json")]) == 2

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"out": "é"}'.encode("latin-1"))
        assert cli.main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"rtq: config error: cannot read config {path}")

    def test_python_m_runs_main(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rtq.cli", "analyze",
             "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")],
            env=_src_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "config error" in proc.stderr

    def test_console_entry_runs_analyze(self, write_config, tmp_path):
        # the console script's path, entry(), end to end in a fresh
        # interpreter: exit 0, every artifact path on stdout, one log record
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-c", "from rtq.cli import entry; entry()", "analyze",
             "--config", write_config(_base_config()), "--out", str(out)],
            env=_src_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        printed = proc.stdout.split()
        assert sorted(printed) == sorted(str(p) for p in out.iterdir() if p.name != "runs.jsonl")
        assert len(printed) == 7  # five pmfs, factors.csv and catalog.json
        (record,) = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
        assert record["command"] == "analyze" and record["artifacts"] == sorted(printed)

    def test_import_does_not_load_scipy_stats(self):
        # a fresh interpreter: this one may already hold scipy; rtq loads no
        # part of it, scipy.stats included
        proc = subprocess.run(
            [sys.executable, "-c",
             "import rtq.cli, sys; "
             "assert not [m for m in sys.modules if m.startswith('scipy')]"],
            env=_src_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_unknown_top_level_key(self, write_config, tmp_path):
        path = write_config(_base_config(extra=1))
        assert cli.main(["analyze", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_nested_keys(self, write_config, tmp_path):
        for block, bad in (
            ("model", {"lam": 1.0, "q": 0.5, "mu": 1.0, "rho": 0.4,
                       "dist1": {"kind": "exponential", "rate": 2.0},
                       "dist2": {"kind": "exponential", "rate": 4.0}}),
            ("sim", {"max_events": 1000, "horizon": 5}),
            ("inversion", {"n": 50, "contour": 0.9}),
            ("inversion", {"n": 50, "points": 400}),
            ("verify", {"tolerance": 0.1}),
            ("sim", {"max_events": 1000, "warmup_fraction": 0.1}),
            ("sim", {"max_events": 1000, "batches": 10}),
            ("sim", {"max_events": 1000, "max_time": 1000.0}),
            ("sim", {"max_events": 1000, "queue_cap": 10}),
            ("verify", {"kappa_tol": 0.15}),
            ("verify", {"c_tol": 0.25}),
        ):
            path = write_config(_base_config(**{block: bad}), f"{block}.json")
            assert cli.main(["analyze", "--config", path,
                             "--out", str(tmp_path / block)]) == 2

    def test_dist_needs_exactly_one_size(self, write_config, tmp_path):
        cfg = _base_config()
        cfg["model"]["dist2"] = {"kind": "exponential", "rate": 2.0, "mean": 0.5}
        assert cli.main(["analyze", "--config", write_config(cfg),
                         "--out", str(tmp_path / "o")]) == 2

    def test_unstable_model(self, write_config, tmp_path):
        cfg = _base_config()
        cfg["model"]["lam"] = 4.0
        assert cli.main(["analyze", "--config", write_config(cfg),
                         "--out", str(tmp_path / "o")]) == 2

    def test_load_config_raises_bad_param(self, write_config):
        with pytest.raises(BadParam):
            cli.load_config(write_config({"model": {}}))

    @pytest.mark.parametrize("block, update, where", [
        ("verify", {"window": [120, 30]}, "verify.window"),
        ("verify", {"window": [30.0, 120]}, "verify.window"),
        ("verify", {"light_window": [5, 100]}, "verify.light_window"),
        ("verify", {"samples": 0}, "verify.samples"),
        ("verify", {"n_states": 0}, "verify.n_states"),
        ("inversion", {"n": -3}, "inversion.n"),
        ("inversion", {"n": 0}, "inversion.n"),
        ("inversion", {"n": float("inf")}, "inversion.n"),
        ("sim", {"max_events": None}, "sim.max_events"),
        ("model", {"lam": None}, "model.lam"),
        ("model", {"q": "0.5"}, "model.q"),
        ("model", {"dist2": {"kind": "exponential", "rate": None}}, "model.dist2.rate"),
        ("model", {"dist2": {"kind": "erlang", "rate": 10.0}}, "model.dist2.shape"),
        ("model", {"dist2": {"kind": "exponential", "mean": 0}}, "model.dist2.mean"),
        ("model", {"dist2": {"kind": "exponential", "rate": 0}}, "model.dist2.rate"),
        ("model", {"dist2": {"kind": "exponential", "rate": -2.0}}, "model.dist2.rate"),
        ("model", {"dist2": {"kind": "erlang", "shape": 2, "rate": 0}}, "model.dist2.rate"),
        ("model", {"dist1": {"kind": "pareto", "index": 2.5, "mean": 0}}, "model.dist1.mean"),
        ("model", {"dist1": {"kind": "pareto", "index": 2.5, "mean": -0.9}},
         "model.dist1.mean"),
        ("model", {"dist1": {"kind": "pareto", "index": 2.5, "scale": 0}},
         "model.dist1.scale"),
        ("model", {"dist2": {"kind": "erlang", "shape": 0, "rate": 10.0}}, "model.dist2.shape"),
        ("model", {"dist2": {"kind": "erlang", "shape": 1.5, "rate": 10.0}},
         "model.dist2.shape"),
        ("model", {"dist1": {"kind": "pareto", "index": 0.5, "mean": 0.6}}, "model.dist1.index"),
        ("model", {"dist1": {"kind": "pareto", "index": -1.0, "scale": 0.9}},
         "model.dist1.index"),
        ("model", {"dist2": {"kind": "exponential", "mean": 1e-310}}, "model.dist2.mean"),
        ("inversion", {"n": 150.9}, "inversion.n"),
        ("sim", {"max_events": 0}, "sim.max_events"),
        ("sim", {"max_events": 1000.5}, "sim.max_events"),
        ("model", {"dist1": {"kind": "pareto", "index": 0.8, "scale": 0.5}}, "model.dist1.index"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_malformed_values_are_config_errors(self, write_config, tmp_path, capsys,
                                                block, update, where):
        cfg = _base_config()
        cfg[block] = {**cfg[block], **update}
        path = write_config(cfg)
        with pytest.raises(BadParam, match=where):
            cli.load_config(path)
        assert cli.main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"rtq: config error: {where}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_bad_seed_is_a_config_error(self, write_config, tmp_path, capsys, seed):
        path = write_config(_base_config(seed=seed))
        with pytest.raises(BadParam, match="config.seed"):
            cli.load_config(path)
        assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("rtq: config error: config.seed")
        assert not (tmp_path / "o").exists()

    def test_negative_seed_flag_is_a_config_error(self, write_config, tmp_path, capsys):
        path = write_config(_base_config())
        assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o"),
                         "--seed", "-3"]) == 2
        assert capsys.readouterr().err.startswith("rtq: config error: --seed")
        assert not (tmp_path / "o").exists()

    def test_integral_floats_are_counts(self, write_config):
        cfg = cli.load_config(write_config(_base_config(
            seed=4.0, sim={"max_events": 1e4}, inversion={"n": 60.0})))
        assert (cfg.seed, cfg.sim.max_events, cfg.inversion_n) == (4, 10_000, 60)
        assert type(cfg.seed) is type(cfg.sim.max_events) is type(cfg.inversion_n) is int

    @pytest.mark.parametrize("block, value", [
        ("inversion", None), ("sim", ["max_events"]), ("verify", 5), ("model", None),
    ])
    def test_blocks_must_be_objects(self, write_config, tmp_path, capsys, block, value):
        path = write_config(_base_config(**{block: value}))
        with pytest.raises(BadParam, match=f"{block} must be an object"):
            cli.load_config(path)
        assert cli.main(["analyze", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(
            f"rtq: config error: {block} must be an object")
        assert not (tmp_path / "o").exists()


class TestHeavierType2Tail:
    """a1 = 3.5 > a2 = 2.5: the stationary laws exist, the tail catalog does not."""

    @pytest.fixture
    def heavy2_config(self, write_config):
        cfg = _base_config()
        cfg["model"]["dist1"] = {"kind": "pareto", "index": 3.5, "mean": 0.6}
        cfg["model"]["dist2"] = {"kind": "pareto", "index": 2.5, "mean": 0.3}
        return write_config(cfg)

    def test_analyze_writes_everything_but_the_catalog(self, heavy2_config, tmp_path):
        out = tmp_path / "o"
        assert cli.main(["analyze", "--config", heavy2_config, "--out", str(out)]) == 0
        written = sorted(p.name for p in out.iterdir())
        assert written == sorted(
            ["factors.csv", "runs.jsonl", *(f"pmf_{t}.csv" for t in TARGET_STATES)]
        )

    @pytest.mark.parametrize("argv", [["simulate"], ["sample", "--target", "r1", "-n", "500"]])
    def test_simulate_and_sample_run(self, heavy2_config, tmp_path, argv):
        out = tmp_path / "o"
        assert cli.main([*argv, "--config", heavy2_config, "--out", str(out)]) == 0
        assert (out / "runs.jsonl").exists()

    def test_verify_is_a_config_error_before_any_work(self, heavy2_config, tmp_path,
                                                      capsys, monkeypatch):
        _assert_verify_refused(heavy2_config, tmp_path, capsys, monkeypatch,
                               "power-law indices must satisfy a2 > a1")


class TestLightType1Tail:
    """Exponential type-1 service: no power tail, so no tail catalog."""

    def test_verify_is_a_config_error_before_any_work(self, write_config, tmp_path,
                                                      capsys, monkeypatch):
        cfg = _base_config()
        cfg["model"]["dist1"] = {"kind": "exponential", "mean": 0.6}
        _assert_verify_refused(write_config(cfg), tmp_path, capsys, monkeypatch,
                               "tail catalog requires a power-tailed type-1 service law")


def _assert_verify_refused(path, tmp_path, capsys, monkeypatch, message):
    """`rtq verify` exits 2 with `message` before any pillar runs, writing nothing."""
    def no_work(*args, **kwargs):
        raise AssertionError("verify ran a pillar before checking the catalog")

    monkeypatch.setattr(transforms, "conditional_pmfs", no_work)
    monkeypatch.setattr(cli, "simulate", no_work)
    out = tmp_path / "o"
    assert cli.main(["verify", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"rtq: config error: {message}")
    assert not out.exists()


# the exit code and stderr prefix of every rtq error class
_EXITS = {
    errors.BadParam: (2, "config error"),
    errors.Unstable: (2, "config error"),
    errors.AssumptionViolation: (2, "config error"),
    errors.InsufficientData: (4, "data error"),
    errors.WindowTooNoisy: (4, "data error"),
    errors.QuadratureFailure: (3, "numeric error"),
    errors.NoConvergence: (3, "numeric error"),
    errors.InversionError: (3, "numeric error"),
    errors.RecursionDepthExceeded: (3, "numeric error"),
    errors.OverflowGuard: (3, "numeric error"),
    errors.NotApplicable: (3, "numeric error"),
}


# lam2**a = 1000**103 overflows the tail catalog's constants
_OVERFLOW_MODEL = {"lam": 2000, "q": 0.5, "mu": 1,
                   "dist1": {"kind": "pareto", "index": 103, "mean": 1e-8},
                   "dist2": {"kind": "exponential", "mean": 1e-8}}


class TestExitCodes:
    def test_every_error_class_has_an_exit_code(self):
        classes = {c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, errors.RtqError)}
        assert classes - {errors.RtqError} == set(_EXITS)

    @pytest.mark.parametrize("error", list(_EXITS), ids=lambda c: c.__name__)
    def test_error_class_maps_to_its_exit_code(self, write_config, tmp_path, capsys,
                                               monkeypatch, error):
        def failing(cfg):
            raise error("planted")

        monkeypatch.setattr(cli, "cmd_analyze", failing)
        code, prefix = _EXITS[error]
        assert cli.main(["analyze", "--config", write_config(_base_config()),
                         "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err == f"rtq: {prefix}: planted\n"
        assert not (tmp_path / "o" / "runs.jsonl").exists()

    def test_a_value_error_in_a_command_is_no_config_error(self, write_config, tmp_path,
                                                            capsys, monkeypatch):
        # only the config's own checks report a config error: a ValueError
        # from inside a command escapes as the bug it is
        def failing(*args, **kwargs):
            raise ValueError("planted")

        monkeypatch.setattr(transforms, "conditional_pmfs", failing)
        with pytest.raises(ValueError, match="planted"):
            cli.main(["analyze", "--config", write_config(_base_config()),
                      "--out", str(tmp_path / "o")])
        assert "config error" not in capsys.readouterr().err

    def test_an_overflowing_catalog_leaves_no_analyze_artifact(self, write_config, tmp_path,
                                                                capsys):
        # means of 1e-4 invert; the catalog is computed before any write
        model = {**_OVERFLOW_MODEL, "dist1": {"kind": "pareto", "index": 103, "mean": 1e-4},
                 "dist2": {"kind": "exponential", "mean": 1e-4}}
        cfg = {"model": model, "inversion": {"n": 30, "radius": 0.8}}
        out = tmp_path / "o"
        assert cli.main(["analyze", "--config", write_config(cfg), "--out", str(out)]) == 3
        assert "tail catalog entry 'xg'" in capsys.readouterr().err
        assert not out.exists()

    def test_hopeless_roundoff_is_a_numeric_error(self, write_config, tmp_path, capsys):
        cfg = _base_config(inversion={"n": 150, "radius": 0.3})
        assert cli.main(["analyze", "--config", write_config(cfg),
                         "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith(
            "rtq: numeric error: radius 0.3 amplifies round-off")


# each law has a float overflow in an intermediate, never in a result: a
# Pareto index of 171 or more, whose LST series divides by n! past 170!; an
# Erlang shape whose tail constant rate^(k - 1) / (k - 1)! is finite while
# its numerator and denominator are not; an Erlang shape whose rate^k is
# beyond a float in the LST's derivative
_LARGE_INDEX_OR_SHAPE = {
    "pareto-index-200": {"lam": 1, "q": 0.5, "mu": 1,
                         "dist1": {"kind": "pareto", "index": 2.5, "mean": 0.3},
                         "dist2": {"kind": "pareto", "index": 200, "mean": 1e-6}},
    "erlang-tail-shape-200": {"lam": 1.0, "q": 0.5, "mu": 1.0,
                              "dist1": {"kind": "pareto", "index": 2.5, "mean": 0.6},
                              "dist2": {"kind": "erlang", "shape": 200, "rate": 666}},
    "erlang-lst-shape-157": {"lam": 4.027, "q": 0.5166, "mu": 421.56,
                             "dist1": {"kind": "erlang", "shape": 157, "rate": 53927.58},
                             "dist2": {"kind": "exponential", "mean": 0.0038}},
}


@pytest.mark.parametrize("model", _LARGE_INDEX_OR_SHAPE.values(), ids=list(_LARGE_INDEX_OR_SHAPE))
def test_large_index_or_shape_analyzes(write_config, tmp_path, model):
    path = write_config(_base_config(model=model))
    assert cli.main(["analyze", "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_erlang_shape_157_analyzes_at_the_default_inversion(write_config, tmp_path):
    # with a type-1 mean of 0.003 the H factors' difference quotients once
    # cancelled enough digits to push R12's sum to 1 + 8.9e-6 at the default
    # inversion; R11 and R12 still clip dust near -2.5e-9 there, the Erlang
    # LST's own round-off (R11 holds no H factor)
    cfg = _base_config(model=_LARGE_INDEX_OR_SHAPE["erlang-lst-shape-157"])
    del cfg["inversion"]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "R1[12]: .* clipping negative dust", UserWarning)
        assert cli.main(["analyze", "--config", write_config(cfg),
                         "--out", str(tmp_path / "out")]) == 0


def test_a_huge_pmf_sum_is_printed_in_e_notation(write_config, tmp_path, capsys):
    # verify inverts R21 of an Erlang(200) type-2 law on a radius near the
    # PGF's pole, and its ring values sum to about 2.2e159: the refusal
    # gives that sum in ten significant digits, not in 160
    cfg = _base_config(model=_LARGE_INDEX_OR_SHAPE["erlang-tail-shape-200"],
                       sim={"max_events": 2000},
                       verify={"window": [30, 120], "samples": 1000})
    assert cli.main(["verify", "--config", write_config(cfg),
                     "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("rtq: numeric error: queue | serving type 2 (light): ")
    assert err.endswith("probabilities sum to 2.181497642e+159 > 1\n")
    assert not (tmp_path / "out").exists()


class TestAnalyze:
    def test_artifacts(self, write_config, tmp_path):
        out = tmp_path / "out"
        path = write_config(_base_config())
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
        for name in ("R0", "R11", "R12", "R21", "R22"):
            header, rows = _read_csv(out / f"pmf_{name}.csv")
            assert header == ["j", "probability"]
            assert rows[-1][0] == "deficit"
            deficit = float(rows[-1][1])
            mass = sum(float(r[1]) for r in rows[:-1])
            assert mass + deficit == pytest.approx(1.0, abs=1e-7)
            assert deficit <= 5e-3  # heavy tail truncated at j = 60
        header, rows = _read_csv(out / "factors.csv")
        assert header[0] == "u" and len(rows) == 100
        catalog = json.loads((out / "catalog.json").read_text())
        assert "r0" in catalog and "r21" in catalog

    def test_analyze_and_simulate_csv_is_the_csv_writer_text(self, write_config, tmp_path):
        path = write_config(_base_config())
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
        cfg = cli.load_config(path, out_override=str(out))

        pmf = transforms.conditional_pmfs(cfg.params, 60, radius=0.8)["R0"]
        rows = [(j, f"{v:.17g}") for j, v in enumerate(pmf.probs)]
        rows.append(("deficit", f"{pmf.deficit:.17g}"))
        expect = _csv_writer_text(("j", "probability"), rows)
        assert (out / "pmf_R0.csv").read_text() == expect

        u = np.linspace(0.0, 0.99, 100)
        kf = transforms.factor_K(cfg.params, u)
        rows = [(f"{ui:.4f}", *(f"{x.real:.17g}" for x in vals))
                for ui, *vals in zip(u, kf.ka, kf.kb, kf.kc, kf.k)]
        expect = _csv_writer_text(("u", "ka", "kb", "kc", "k"), rows)
        assert (out / "factors.csv").read_text() == expect

        hist = simulate(cfg.params, cfg.sim).conditional_pmf("R12")
        rows = [(j, f"{v:.17g}") for j, v in enumerate(hist)]
        expect = _csv_writer_text(("j", "fraction"), rows)
        assert (out / "hist_R12.csv").read_text() == expect

    def test_light_tail_deficit_is_negligible(self, write_config, tmp_path):
        # with two exponential laws, 500 recovered states hold all the mass
        out = tmp_path / "out"
        cfg = _base_config(inversion={"n": 500, "radius": 0.99})
        cfg["model"]["dist1"] = {"kind": "exponential", "mean": 0.3}
        assert cli.main(["analyze", "--config", write_config(cfg),
                         "--out", str(out)]) == 0
        for name in ("R0", "R11", "R12", "R21", "R22"):
            _, rows = _read_csv(out / f"pmf_{name}.csv")
            assert rows[-1][0] == "deficit"
            assert float(rows[-1][1]) <= 1e-6

    def test_artifacts_get_the_umask_mode(self, write_config, tmp_path):
        # renamed artifacts get the mode open(path, "w") gives, as runs.jsonl does
        out = tmp_path / "out"
        path = write_config(_base_config())
        old = os.umask(0o027)
        try:
            assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
            assert cli.main(["sample", "--config", path, "--out", str(out),
                             "--target", "r1", "-n", "10"]) == 0
        finally:
            os.umask(old)
        names = sorted(p.name for p in out.iterdir())
        assert "runs.jsonl" in names and "samples_r1.csv" in names
        assert not [n for n in names if n.startswith(".tmp-")]
        for p in out.iterdir():
            assert stat.S_IMODE(p.stat().st_mode) == 0o640, p.name

    def test_run_log_appends(self, write_config, tmp_path):
        out = tmp_path / "out"
        path = write_config(_base_config())
        for _ in range(2):
            assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
        lines = (out / "runs.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert rec["command"] == "analyze"
        assert rec["config_hash"] == json.loads(lines[1])["config_hash"]
        assert rec["artifacts"]

    def test_seed_changes_hash(self, write_config, tmp_path):
        out = tmp_path / "out"
        path = write_config(_base_config())
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
        assert cli.main(["analyze", "--config", path, "--out", str(out),
                         "--seed", "99"]) == 0
        lines = (out / "runs.jsonl").read_text().strip().splitlines()
        a, b = (json.loads(x)["config_hash"] for x in lines)
        assert a != b


class TestSimulate:
    def test_artifacts(self, write_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", write_config(_base_config()),
                         "--out", str(out)]) == 0
        stats = json.loads((out / "sim_stats.json").read_text())
        frac = np.array(stats["state_fractions"])
        assert frac.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(frac, stats["expected_fractions"], atol=0.05)
        header, rows = _read_csv(out / "hist_R0.csv")
        assert float(sum(float(r[1]) for r in rows)) == pytest.approx(1.0, abs=1e-9)

    def test_fewest_events(self, write_config, tmp_path, capsys):
        # one event completes no regeneration cycle, so there are no error bars
        cfg = _base_config(sim={"max_events": 1})
        out = tmp_path / "a"
        assert cli.main(["simulate", "--config", write_config(cfg), "--out", str(out)]) == 4
        assert "0 completed regeneration cycles" in capsys.readouterr().err
        assert not out.exists()
        cfg = _base_config(sim={"max_events": 200})
        out = tmp_path / "b"
        assert cli.main(["simulate", "--config", write_config(cfg), "--out", str(out)]) == 0
        stats = json.loads((out / "sim_stats.json").read_text())
        assert stats["cycles"] >= 2 and stats["events"] == 200
        assert np.all(np.isfinite(stats["state_fraction_stderr"]))

    def test_verify_without_error_bars_writes_nothing(self, write_config, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = _base_config(sim={"max_events": 1})
        assert cli.main(["verify", "--config", write_config(cfg), "--out", str(out)]) == 4
        assert "0 completed regeneration cycles" in capsys.readouterr().err
        assert not out.exists()

    def test_rare_state_writes_nothing(self, write_config, tmp_path, capsys):
        # type-2 services hold the server 0.26% of the time: R21 and R22 have
        # no histogram, so no artifact is written
        cfg = _base_config(sim={"max_events": 50_000}, seed=1)
        cfg["model"].update(q=0.99, dist1={"kind": "pareto", "index": 2.5, "mean": 0.25},
                            dist2={"kind": "exponential", "rate": 4.0})
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", write_config(cfg), "--out", str(out)]) == 4
        assert "'busy2' observed" in capsys.readouterr().err
        assert not out.exists()


class TestSample:
    def test_scalar_target_mean(self, write_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["sample", "--config", write_config(_base_config()),
                         "--out", str(out), "--target", "xg", "-n", "200000"]) == 0
        header, rows = _read_csv(out / "samples_xg.csv")
        assert header == ["value"]
        mean = np.mean([float(r[0]) for r in rows])
        assert mean == pytest.approx(0.5 / 0.7, abs=0.01)

    def test_pair_target_columns(self, write_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["sample", "--config", write_config(_base_config()),
                         "--out", str(out), "--target", "s2", "-n", "100"]) == 0
        header, rows = _read_csv(out / "samples_s2.csv")
        assert header == ["queue", "orbit"] and len(rows) == 100

    def test_a_poisson_mean_beyond_numpy_is_a_numeric_error(self, write_config, tmp_path,
                                                              capsys):
        # type-1 index 1.05: ka's forest would need a Poisson of mean above
        # about 9.2e18, which numpy refuses with a ValueError
        cfg = _base_config()
        cfg["model"]["dist1"]["index"] = 1.05
        assert cli.main(["sample", "--config", write_config(cfg), "--out",
                         str(tmp_path / "out"), "--target", "ka", "-n", "1000"]) == 3
        assert capsys.readouterr().err.startswith("rtq: numeric error: ")
        assert not (tmp_path / "out" / "samples_ka.csv").exists()

    @pytest.mark.parametrize("target", ["h1", "h2"])
    def test_length_biased_draws_near_index_one_end_in_one_line(self, write_config, tmp_path,
                                                               capsys, target):
        # both indices at 1.01: a length-biased draw can exceed the largest
        # float; the command refuses it in one line, without a numpy warning
        # (the suite turns warnings into errors)
        cfg = _base_config()
        cfg["model"]["dist1"]["index"] = 1.01
        cfg["model"]["dist2"] = {"kind": "pareto", "index": 1.01, "mean": 0.3}
        assert cli.main(["sample", "--config", write_config(cfg), "--out",
                         str(tmp_path / "out"), "--target", target, "-n", "20000"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("rtq: numeric error: ") and err.count("\n") == 1

    def test_deterministic_per_seed(self, write_config, tmp_path):
        path = write_config(_base_config())

        def drawn(name, *extra):
            out = tmp_path / name
            assert cli.main(["sample", "--config", path, "--out", str(out),
                             "--target", "r1", "-n", "5000", *extra]) == 0
            return (out / "samples_r1.csv").read_bytes()

        first = drawn("a")
        assert drawn("b") == first
        assert drawn("c", "--seed", "4") != first

    def test_exponential_is_the_shape1_erlang(self, write_config, tmp_path):
        # one law written two ways draws one stream and writes one file
        texts = []
        for name, law in (("exp", {"kind": "exponential", "rate": 10 / 3}),
                          ("erl", {"kind": "erlang", "shape": 1, "rate": 10 / 3})):
            cfg = _base_config()
            cfg["model"]["dist2"] = law
            out = tmp_path / name
            assert cli.main(["sample", "--config", write_config(cfg, f"{name}.json"),
                             "--out", str(out), "--target", "r1", "-n", "3000"]) == 0
            texts.append((out / "samples_r1.csv").read_bytes())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("target", SCALAR_TARGETS + PAIR_TARGETS)
    def test_csv_is_the_csv_writer_text(self, write_config, tmp_path, target):
        path = write_config(_base_config())
        for n in (1, 3000):
            out = tmp_path / f"out{n}"
            assert cli.main(["sample", "--config", path, "--out", str(out),
                             "--target", target, "-n", str(n)]) == 0
            cfg = cli.load_config(path, out_override=str(out))
            drawn = DecompositionSampler(cfg.params, seed=cfg.seed).sample(target, n)
            if isinstance(drawn, tuple):
                rows = zip(drawn[0].tolist(), drawn[1].tolist())
                expect = _csv_writer_text(("queue", "orbit"), rows)
            else:
                expect = _csv_writer_text(("value",), [(v,) for v in drawn.tolist()])
            assert (out / f"samples_{target}.csv").read_text() == expect

    @pytest.mark.parametrize("target", ["r0", "r1"])
    def test_streamed_csv_across_block_edges(self, write_config, tmp_path, monkeypatch,
                                             target):
        # three blocks, the last of one draw, written as they come
        path, n = write_config(_base_config()), 2 * _BLOCK + 1
        texts = []
        for cores in (1, 2):
            monkeypatch.setattr(parallel, "workers", lambda jobs, cores=cores: min(jobs, cores))
            out = tmp_path / f"cores{cores}"
            assert cli.main(["sample", "--config", path, "--out", str(out),
                             "--target", target, "-n", str(n)]) == 0
            texts.append((out / f"samples_{target}.csv").read_text())
        cfg = cli.load_config(path)
        drawn = DecompositionSampler(cfg.params, seed=cfg.seed).sample(target, n)
        if isinstance(drawn, tuple):
            expect = _csv_writer_text(("queue", "orbit"),
                                      zip(drawn[0].tolist(), drawn[1].tolist()))
        else:
            expect = _csv_writer_text(("value",), [(v,) for v in drawn.tolist()])
        assert texts == [expect, expect]

    @pytest.mark.parametrize("cores", [1, 2])
    def test_failure_mid_stream_leaves_nothing(self, write_config, tmp_path, monkeypatch,
                                               capsys, cores):
        # block 1 raises: the command fails, no file is left behind, and no
        # block beyond the pool's window of 2 per worker is ever drawn
        started = []

        def r0_block(self, n):
            block = self.rng.bit_generator.seed_seq.spawn_key[-1]
            started.append(block)
            if block == 1:
                raise RecursionDepthExceeded("block 1 fails")
            return np.zeros(n, dtype=np.int64)

        monkeypatch.setattr(parallel, "workers", lambda jobs: min(jobs, cores))
        monkeypatch.setattr(DecompositionSampler, "_r0", r0_block)
        out = tmp_path / "out"
        assert cli.main(["sample", "--config", write_config(_base_config()),
                         "--out", str(out), "--target", "r0",
                         "-n", str(12 * _BLOCK)]) == 3
        assert "block 1 fails" in capsys.readouterr().err
        assert not list(out.glob("samples_*")) and not list(out.glob(".tmp-*"))
        assert 1 in started and max(started) <= 2 * cores

    def test_memory_does_not_grow_with_n(self, write_config, tmp_path, monkeypatch):
        # numpy reports its buffers to tracemalloc, so a path that holds
        # every draw, or every row's text, at once shows here; both sizes
        # fill the pool's window of 2 blocks per worker ahead of the writer
        monkeypatch.setattr(parallel, "workers", lambda jobs: min(jobs, 2))
        cfg = cli.load_config(write_config(_base_config()), out_override=str(tmp_path))
        peaks = []
        for blocks in (6, 24):
            tracemalloc.start()
            try:
                cli.cmd_sample(cfg, "r1", blocks * _BLOCK)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_requires_target(self, write_config, tmp_path):
        assert cli.main(["sample", "--config", write_config(_base_config()),
                         "--out", str(tmp_path / "o")]) == 2

    def test_unknown_target(self, write_config, tmp_path):
        assert cli.main(["sample", "--config", write_config(_base_config()),
                         "--out", str(tmp_path / "o"), "--target", "r9",
                         "-n", "10"]) == 2


@st.composite
def _int_columns(draw):
    """One or two columns of non-negative int64; the last pair of highs makes
    the shifted-span pair codes overflow int64."""
    n = draw(st.integers(1, 40))
    highs = draw(st.sampled_from([[2**40], [2**40, 2**22], [2**22, 2**40], [2**62, 2**62]]))
    columns = []
    for hi in highs:
        if draw(st.booleans()):
            columns.append([draw(st.integers(0, hi))] * n)
        else:
            cell = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, hi))
            columns.append(draw(st.lists(cell, min_size=n, max_size=n)))
    return columns


_I64 = np.iinfo(np.int64)


@settings(max_examples=200, deadline=None)
@given(columns=_int_columns())
@example(columns=[[_I64.min, _I64.max, 0, -1, _I64.max]])
@example(columns=[[0, 2**62 - 1, 5], [0, 1, 1]])  # largest code exactly 2**63 - 1
@example(columns=[[-5, 3, -5], [-(2**40), 7, 0]])
def test_int_writer_is_the_csv_writer_text(columns):
    header = ("value",) if len(columns) == 1 else ("queue", "orbit")
    arrays = [np.array(c, dtype=np.int64) for c in columns]
    text = ",".join(header) + "\n" + cli._int_csv_rows(*arrays)
    assert text == _csv_writer_text(header, zip(*columns))


@pytest.mark.parametrize("columns", [
    [[0, 2**62], [0, 3]],
    [[0, (2**63 - 1) // 3], [0, 2]],  # codes up to 2**63 + 1
    [[_I64.min, 0], [0, 0]],
    [[0, 0], [_I64.min, _I64.max]],
    # both columns near 2**62, repeated rows and values shared across rows
    [[2**62, 3, 2**62 + 7, 3, 2**62, 0], [2**62 - 1, 2**62 + 5, 0, 2**62 + 5, 2**62 - 1, 3]],
])
def test_int_writer_writes_rows_whose_pair_codes_overflow(columns):
    # the shifted-span codes would not fit in int64, so the rows are coded by
    # their columns' ranks, with the same text
    arrays = [np.array(c, dtype=np.int64) for c in columns]
    text = "queue,orbit\n" + cli._int_csv_rows(*arrays)
    assert text == _csv_writer_text(("queue", "orbit"), zip(*columns))


def _reject_constant(token):
    # NaN and Infinity are not JSON (RFC 8259); strict parsers reject them
    raise ValueError(f"non-standard JSON constant {token}")


class TestVerify:
    def test_an_overflowing_catalog_is_a_numeric_error(self, write_config, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["verify", "--config", write_config({"model": _OVERFLOW_MODEL}),
                         "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            "rtq: numeric error: tail catalog entry 'xg'")
        assert not out.exists()

    def test_a_huge_draw_allocates_nothing(self, write_config, tmp_path, monkeypatch):
        # an orbit law of infinite mean can draw ~5e13; counting 0..n_states
        # must not allocate a cell for every value up to the largest draw
        draw = DecompositionSampler._r0

        def planted(self, n):
            out = draw(self, n)
            out[0] = 2**62
            return out

        monkeypatch.setattr(DecompositionSampler, "_r0", planted)
        cfg = _base_config(inversion={"n": 160, "radius": 0.99},
                           verify={"window": [30, 120], "n_states": 40, "samples": 20_000})
        out = tmp_path / "o"
        assert cli.main(["verify", "--config", write_config(cfg), "--out", str(out)]) == 0
        assert (out / "verify_report.json").exists()

    def test_sampler_pmfs_are_the_targets_drawn_in_turn(self, write_config, monkeypatch):
        # r0, r1 and r2 drawn in turn from one sampler; 70,001 draws end
        # each target's blocks with a short one
        monkeypatch.setattr(parallel, "workers", lambda jobs: min(jobs, 2))
        cfg = cli.load_config(write_config(_base_config(
            verify={"n_states": 40, "samples": 70_001})))
        pmfs = cli._sampler_pmfs(cfg)
        ds = DecompositionSampler(cfg.params, seed=cfg.seed)
        drawn = (ds.sample("r0", 70_001), *ds.sample("r1", 70_001), *ds.sample("r2", 70_001))
        assert list(pmfs) == ["R0", "R11", "R12", "R21", "R22"]
        for tag, d in zip(pmfs, drawn):
            np.testing.assert_array_equal(pmfs[tag], np.bincount(d, minlength=41)[:41] / 70_001)

    def test_the_inversion_block_is_not_read(self, write_config, tmp_path):
        # verify sizes its own contour; an inversion block that analyze
        # accepts but verify's radius could not reach changes nothing
        reports = []
        for name, inversion in (("deep", {"n": 5000, "radius": 0.999}), ("base", {"n": 60})):
            cfg = _base_config(inversion=inversion,
                               verify={"window": [30, 120], "n_states": 40, "samples": 20_000})
            out = tmp_path / name
            assert cli.main(["verify", "--config", write_config(cfg, f"{name}.json"),
                             "--out", str(out)]) == 0
            reports.append((out / "verify_report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_a_deep_window_is_inverted(self, write_config, tmp_path):
        # a window top of 3,500 asks for 4,666 coefficients: at radius 0.995
        # round-off would grow by 1.4e10 there, past `_check_contour`; the
        # radius set from the depth keeps that growth at 1e3
        cfg = _base_config(verify={"window": [50, 3500], "n_states": 40, "samples": 20_000})
        out = tmp_path / "o"
        assert cli.main(["verify", "--config", write_config(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["targets"]["R0"]["fits"]["inversion"]["window"] == [50, 3500]

    def test_a_window_in_the_billions_is_refused(self, write_config, tmp_path, capsys,
                                                 monkeypatch):
        # a window top of 10^9 asks for a contour of 5.3e9 points, refused
        # before the ring is built
        def unbuilt_ring(radius, m):
            raise AssertionError(f"a ring of {m} points was built")

        monkeypatch.setattr(transforms, "_ring", unbuilt_ring)
        cfg = _base_config(verify={"window": [10, 10**9]})
        out = tmp_path / "o"
        assert cli.main(["verify", "--config", write_config(cfg), "--out", str(out)]) == 3
        assert "points exceeds the 4194304 allowed" in capsys.readouterr().err
        assert not out.exists()

    def test_small_end_to_end(self, write_config, tmp_path):
        out = tmp_path / "out"
        cfg = _base_config(
            sim={"max_events": 300_000},
            inversion={"n": 160, "radius": 0.99},
            verify={"window": [30, 120], "light_window": [30, 100],
                    "n_states": 40, "samples": 100_000},
        )
        assert cli.main(["verify", "--config", write_config(cfg),
                         "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text(),
                            parse_constant=_reject_constant)
        assert report["occupancy"]["within_ci"] in (True, False)
        assert report["occupancy"]["cycles"] > 1000
        assert sorted(report["targets"]) == ["R0", "R11", "R12", "R21", "R22"]
        for target, body in report["targets"].items():
            assert body["tv"], target
            assert max(body["tv"].values()) < 0.05
        assert len(report["lemmas"]) == 4
