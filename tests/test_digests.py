"""Seeded artifacts against a committed digest manifest.

Each artifact is the text the CLI writes for one small seeded invocation
(floats at 12 significant digits), or, for the benchmark's ``code_audit``
job summaries and one concentration report, the same JSON rendering of
their numbers.  The test hashes every artifact (sha256) and compares the
digests with ``digests.json``.  A change that moves a seeded output updates
the manifest in the same commit and names every moved artifact in
CHANGES.md.

The manifest records the Python and numpy versions it was made with.  Under
those versions every moved digest fails the test.  Under other versions an
artifact may move in its last printed digit (LAPACK solves, numpy's
summation order), so a moved digest there is an expected failure that names
the moved artifacts, not a failure.

Regenerate the manifest with ``PYTHONPATH=src python tests/test_digests.py``.
"""

import hashlib
import importlib.util
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from _support import example62_input, random_factored, random_mac
from wtmac.casestudy import coupled_input, discussion_channels
from wtmac.cli import _round_floats, run
from wtmac.codesim import CodeChain, concentration_report, sample_codebook_family
from wtmac.probkit import Channel, Dist

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("digests.json")
BENCH_SEED = 7919


def _channels():
    """(name, channel, input, code arguments) for the channel subcommands."""
    example = example62_input()
    additive = discussion_channels()
    out = [("example62", example.mac, example, ["--n", "4"]),
           ("additive", additive, coupled_input(additive, 0.5),
            ["--rates", "0.45", "0", "0", "--n", "5", "--slack", "0.1"])]
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        mac = random_mac(rng, t=3, z=2, bob_quality=0.8)
        out.append((f"random{seed}", mac, random_factored(rng, mac),
                    ["--n", "5", "--slack", "0.2"]))
    return out


def _render(obj) -> str:
    return json.dumps(_round_floats(obj), indent=2, sort_keys=True) + "\n"


def _bench_workloads():
    path = ROOT / "perfbench" / "bench_workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def artifacts(tmp: Path) -> dict:
    """Name -> artifact text of every covered seeded invocation."""
    out = {}

    def cli(name, argv):
        path = tmp / "artifact.json"
        assert run(["--out", str(path), *argv]) == 0, name
        out[name] = path.read_text()

    for name, mac, p, code_args in _channels():
        ch, pp = tmp / f"{name}.channel.json", tmp / f"{name}.p.json"
        ch.write_text(mac.to_json())
        pp.write_text(json.dumps(p.to_json_dict()))
        law = ["--channel", str(ch), "--p", str(pp)]
        cli(f"info/{name}", ["info", *law])
        cli(f"classify/{name}", ["classify", *law, "--hc", "0.3"])
        cli(f"region/{name}", ["region", *law, "--hc", "0.3"])
        cli(f"conf-region/{name}", ["conf-region", *law, "--c1", "0.15",
                                    "--c2", "0.15", "--alpha-points", "11"])
        search = ["--channel", str(ch), "--restarts", "3", "--refine-iters",
                  "3", "--directions", "4", "--u-size", "2", "--seed", "5"]
        cli(f"optimize/common/{name}", ["optimize", *search, "--mode",
                                        "common", "--hc", "0.3",
                                        "--with-capacity"])
        cli(f"optimize/conferencing/{name}", ["optimize", *search, "--mode",
                                              "conferencing", "--c1", "0.1",
                                              "--c2", "0.1"])
        code = [*law, "--case", "3", "--hc", "2.0", *code_args, "--seed", "3"]
        cli(f"simulate/{name}", ["simulate", *code])
        cli(f"simulate/mc/{name}", ["simulate", *code, "--mc", "--trials",
                                    "300"])
        cli(f"leakage/{name}", ["leakage", *code])
    cli("verify-lemmas", ["verify-lemmas", "--instances", "5", "--samples",
                          "40", "--seed", "2"])
    cli("example61", ["example61", "--grid", "9"])
    cli("example62", ["example62"])
    for predicate in ("needs-time-sharing", "conferencing-helps"):
        cli(f"search/{predicate}", ["search", "--budget", "60", "--seed", "3",
                                    "--predicate", predicate])

    bench = _bench_workloads()
    for job in bench.audit_jobs(BENCH_SEED) + bench.concentration_jobs(
            BENCH_SEED):
        out[f"code_audit/{job.name}"] = _render(job.summary(job.run()))
    chain = CodeChain(Dist.from_mass([0.55, 0.45]),
                      Channel.from_matrix([[0.8, 0.2], [0.25, 0.75]]),
                      Channel.from_matrix([[0.7, 0.3], [0.2, 0.8]]),
                      random_mac(np.random.default_rng(6)))
    fam = sample_codebook_family(chain, 4, (2, 2, 2), 0.45, seed=8)
    out["concentration"] = _render(concentration_report(
        fam, eps=0.35, resamples=12, seed=9).to_json_dict())
    return out


def digests(tmp: Path) -> dict:
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in sorted(artifacts(tmp).items())}


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def test_seeded_artifacts_match_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    got, want = digests(tmp_path), manifest["digests"]
    moved = sorted(name for name in got.keys() | want.keys()
                   if got.get(name) != want.get(name))
    recorded = {key: manifest[key] for key in _versions()}
    if moved and recorded != _versions():
        pytest.xfail(f"manifest made under {recorded}, run under "
                     f"{_versions()}; moved: {moved}")
    assert not moved, f"moved artifacts: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {**_versions(), "digests": digests(Path(tmp))}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(manifest['digests'])} digests to {MANIFEST}",
          file=sys.stderr)
