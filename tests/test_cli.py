"""Command-line interface: config validation, artifacts, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rtq import cli, transforms
from rtq.decomposition import DecompositionSampler
from rtq.errors import BadParam
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

    def test_python_m_runs_main(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rtq.cli", "analyze",
             "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")],
            env=_src_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "config error" in proc.stderr

    def test_import_does_not_load_scipy_stats(self):
        # a fresh interpreter: this one may already hold scipy.stats
        proc = subprocess.run(
            [sys.executable, "-c",
             "import rtq.cli, sys; assert 'scipy.stats' not in sys.modules"],
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

        hist = simulate(cfg.params, cfg.sim).conditional_pmf(*TARGET_STATES["R12"])
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

    @pytest.mark.parametrize("target", ["r0", "r1"])
    def test_csv_is_the_csv_writer_text(self, write_config, tmp_path, target):
        path = write_config(_base_config())
        out = tmp_path / "out"
        assert cli.main(["sample", "--config", path, "--out", str(out),
                         "--target", target, "-n", "3000"]) == 0
        cfg = cli.load_config(path, out_override=str(out))
        drawn = DecompositionSampler(cfg.params, seed=cfg.seed).sample(target, 3000)
        if isinstance(drawn, tuple):
            rows = zip(drawn[0].tolist(), drawn[1].tolist())
            expect = _csv_writer_text(("queue", "orbit"), rows)
        else:
            expect = _csv_writer_text(("value",), [(v,) for v in drawn.tolist()])
        assert (out / f"samples_{target}.csv").read_text() == expect

    def test_requires_target(self, write_config, tmp_path):
        assert cli.main(["sample", "--config", write_config(_base_config()),
                         "--out", str(tmp_path / "o")]) == 2

    def test_unknown_target(self, write_config, tmp_path):
        assert cli.main(["sample", "--config", write_config(_base_config()),
                         "--out", str(tmp_path / "o"), "--target", "r9",
                         "-n", "10"]) == 2


def _reject_constant(token):
    # NaN and Infinity are not JSON (RFC 8259); strict parsers reject them
    raise ValueError(f"non-standard JSON constant {token}")


class TestVerify:
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
        assert sorted(report["targets"]) == ["R0", "R11", "R12", "R21", "R22"]
        for target, body in report["targets"].items():
            assert body["tv"], target
            assert max(body["tv"].values()) < 0.05
        assert len(report["lemmas"]) == 4
