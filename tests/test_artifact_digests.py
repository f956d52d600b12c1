"""Every artifact is byte-identical to the committed digests.

`artifact_digests.json` holds, per seed, the SHA-256 of every artifact that
`analyze`, `simulate`, `sample` (all 14 targets) and `verify` write for the
two reference models at seeds 7 and 11; `runs.jsonl`, which holds a
timestamp, is left out.  Two sample sizes cross a block edge of the
sampler, one scalar and one pair target.  A change that keeps the random
streams and the printed digits keeps every digest; a change that moves them
on purpose rewrites the file and lists the moved digests in CHANGES.md.  The
artifacts are compared at the host's worker count and at one worker, where
every job runs in-process, so the worker count changes no byte either.  To
rewrite the file:

    PYTHONPATH=src python3 tests/test_artifact_digests.py

The float artifacts carry the bits of numpy's FFT and the host's libm, so
the digests are those of one numpy and one libm.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from rtq import cli, parallel
from rtq.decomposition import _BLOCK, PAIR_TARGETS, SCALAR_TARGETS

DIGESTS = Path(__file__).with_name("artifact_digests.json")
MODELS = {
    "ref": {"lam": 1.0, "q": 0.5, "mu": 1.0,
            "dist1": {"kind": "pareto", "index": 2.5, "mean": 0.6},
            "dist2": {"kind": "exponential", "mean": 0.3}},
    "alt": {"lam": 1.0, "q": 0.5, "mu": 1.0,
            "dist1": {"kind": "pareto", "index": 2.5, "mean": 0.6},
            "dist2": {"kind": "pareto", "index": 4.0, "mean": 0.3}},
}
CONFIG = {
    "sim": {"max_events": 40_000},
    "inversion": {"n": 160, "radius": 0.99},
    "verify": {"window": [30, 120], "light_window": [30, 100],
               "n_states": 40, "samples": 20_000},
}
SEEDS = (7, 11)
COUNTS = {"r0": _BLOCK + 5, "s1": _BLOCK + 5}  # every other target draws 1000
COMMANDS = [["analyze"], ["simulate"],
            *(["sample", "--target", t, "-n", str(COUNTS.get(t, 1000))]
              for t in SCALAR_TARGETS + PAIR_TARGETS),
            ["verify"]]


def digests(work: Path, seed: int) -> dict:
    """{"<model>/<artifact>": SHA-256} of every command's artifacts at
    `seed`, written under `work`."""
    found = {}
    for name, model in MODELS.items():
        config, out = work / f"{name}.json", work / name
        config.write_text(json.dumps({"model": model, **CONFIG, "seed": seed}))
        for command in COMMANDS:
            code = cli.main([command[0], "--config", str(config), "--out", str(out),
                             *command[1:]])
            assert code == 0, f"{name}: {' '.join(command)} exited {code}"
        for path in sorted(out.iterdir()):
            if path.name != "runs.jsonl":
                found[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def _assert_committed(work: Path):
    committed = json.loads(DIGESTS.read_text())
    assert sorted(committed) == sorted(map(str, SEEDS))
    for seed in SEEDS:
        expected = committed[str(seed)]
        (work / str(seed)).mkdir()
        found = digests(work / str(seed), seed)
        assert sorted(found) == sorted(expected)
        moved = sorted(key for key in expected if found[key] != expected[key])
        assert not moved, f"artifacts whose bytes moved at seed {seed}: {moved}"


def test_artifacts_match_the_committed_digests(tmp_path):
    _assert_committed(tmp_path)


def test_one_worker_matches_the_committed_digests(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "workers", lambda jobs: min(jobs, 1))
    _assert_committed(tmp_path)


if __name__ == "__main__":
    table = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as work:
            table[str(seed)] = digests(Path(work), seed)
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"{sum(map(len, table.values()))} digests written to {DIGESTS}", file=sys.stderr)
