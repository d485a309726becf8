"""Golden digests: every desk config in scripts/configs reproduces pinned bytes.

The frozen draw order is part of the output contract, so any refactor of the
samplers must leave these digests unchanged (or explain why the bytes moved).
Manifests are hashed after removing their two timing fields, which keeps
summary-only experiments such as lowerbound-matrix covered. ``GOLDEN`` pins
the configs as they are (CSV tables), ``GOLDEN_JSONL`` the same configs run
with format jsonl.
"""

import hashlib
import json
from pathlib import Path

import pytest

from gibbsmix.harness import ExperimentConfig, run

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"
_VOLATILE = ("started_at_unix", "wall_clock_seconds")

GOLDEN = {
    "compare/comparison_eigenvalues.csv": "9188844f0b53748be0bb8dfb336b36da9228535d8525dc8da9e5b071cc010ff4",
    "compare/comparison_kernel.csv": "e29a6d16a2006184042c68e0a0eab8b2eaa05b4c04ece46e51c6f0b8ccd8dbb6",
    "compare/manifest.json": "afadd3acaf485eb64c14cd8d963f363669d4671a29c43b1d4e3fb57c57f3d9b0",
    "connect/manifest.json": "2a9f14158531a76dbab1f9dcbf1fd2c4b9788e277e0e00a18f66b111205bd2be",
    "connect/taus.csv": "6aecd48f19651896269c841af2fd27da257a292d62c214ac530f33874ee4d972",
    "contract-matrix/manifest.json": "2b8e0dbd633b2f7ce73be5dcb9eea23b1fafe38394b48bd3b3f9a45132d0e8ca",
    "contract-matrix/points.csv": "fc3dde8c4ed7cd73eade600e6cb86f5cdaac66c1bb7228874a47481990755090",
    "contract-simplex/manifest.json": "64a26f5224e348ed49dde3b8ec553d40517cca8e9125fbca6fc4b20c121d8ad6",
    "contract-simplex/means.csv": "8d814e7488a74648338735a397a9d26e20c08f9ec34068436a0f241807e7f185",
    "contract-simplex/trajectory.csv": "bdace45fed52832d8f8e1514d8e969d1e3f158f7b285aca8db77d451a4ee2c2e",
    "couple-matrix/manifest.json": "ee6500e0156c3407c901896397a5ccc3d1b27a12c87ddbce87327e18548a56a6",
    "couple-matrix/outcomes.jsonl": "a7fbcdb8076b5aa3538f57d17ea28caace9dafd5a51b739f29abdb04a3608a5c",
    "couple-simplex/manifest.json": "1af441568364d47dd51ed2bda9a5bdbf4c0233f646b77a1219ab3ea365d387ba",
    "couple-simplex/outcomes.jsonl": "476ed833157fe95733b218b0ff05e835d8779f0b8b35b25ecdf7dcab5f68d763",
    "gap/base_eigenvalues.csv": "400df7440bae50bc9ac732aa3da56247df2efa1336fe78d0ee985557952ecd8b",
    "gap/base_kernel.csv": "662ee9b820290ae3eee96597feffea799b8fea9fe9121c7c528b19449d3da01e",
    "gap/edge_eigenvalues.csv": "bf3946f1d6ee410637eac3a7cde7927bf43c5385d42e056651d8f84553bf413f",
    "gap/manifest.json": "631b9fc0864bf8a5fcfc03e6f7a3013df3d1bd88d35292e3222acc18dbe89455",
    "identity-matrix/manifest.json": "9954cdf81e00ba1e91f34a15f2f8c2ebfa3dce19d15264f9f2ec734b78c30dc4",
    "identity-matrix/residuals.csv": "2b360b2fb134f774640f55fcd352ea238dde3c61db5a3d0fbbf63b052c285d04",
    "largeness/manifest.json": "f029775ad63237db93097bcd5054663f295067e5528fc10806369944c90ec89e",
    "largeness/minima.csv": "f3e893c85e1f8c66f368d5ab7b15e9a00b11a6c661755ccad0ed8c270ad0bd0d",
    "lowerbound-matrix/manifest.json": "38008393dcd1d36e867e0fb7a24e54101566779985fa2382dc8093e9431ecfc6",
    "lowerbound-simplex/manifest.json": "1c930b159dc73eab475c3fe2dd687b2b442affa6a928ba18dfa383d1d3b80a27",
    "lowerbound-simplex/points.csv": "5c0d75f9350464bd60a007efeb04a00f5a91fa7ceb7af06b91a2ea6042d60b9f",
    "oracle/manifest.json": "2af6e34b1a9da05554fb33f628e02882cb03f7a203bec46af09c95b1dddb52d8",
    "s-recursion/manifest.json": "348bb147136b0510757ddf0b39468d58bbabe83e452e1933c6d819f432ed272f",
    "s-recursion/srecursion.csv": "cda5910d57cd6fabccb4265b52ff7cdcd7f115cee0856e4b50d54590098b46e1",
}

GOLDEN_JSONL = {
    "compare/comparison_eigenvalues.jsonl": "99132671cc82b266f4a6d667aeda747ac433b94ec6fcb348f3dade5500629a8a",
    "compare/comparison_kernel.jsonl": "0a7c09fed6c969e533a285182a86319735825339d9c5c119ad7ffa68f255cfa7",
    "compare/manifest.json": "684e81b037cfb5491aeadb5b69c503a0ba95b0ec0945d36cbde84977ae3f4ec6",
    "connect/manifest.json": "fdb0d78d71f2187b82a21668269457fb080c46f54600650723bebd98d65edb5f",
    "connect/taus.jsonl": "18443336ca7a72a640b00eb9e577fd0631516142da5848829c8ddaa140401d91",
    "contract-matrix/manifest.json": "967d92997b3eac7009d85494d0d8beb4aed8a627a201d6f49411f9f7c005ad87",
    "contract-matrix/points.jsonl": "f72dc74493a30021280ccdcd520075115dc65b4b0b54647900c3821f9e456b14",
    "contract-simplex/manifest.json": "577ea6653ff3385b3cdfd0a298cf60cd0a694043760264251ff1a4512061527e",
    "contract-simplex/means.jsonl": "0bd58ff48cf76b225325e9362355e8fd297c56a73a36e53a059a46347f792e76",
    "contract-simplex/trajectory.jsonl": "7fb6fff13a96049abcf8b19ed471f4927de54b03a06142197ab42d5dd9d5bfdd",
    "couple-matrix/manifest.json": "ee6500e0156c3407c901896397a5ccc3d1b27a12c87ddbce87327e18548a56a6",
    "couple-matrix/outcomes.jsonl": "a7fbcdb8076b5aa3538f57d17ea28caace9dafd5a51b739f29abdb04a3608a5c",
    "couple-simplex/manifest.json": "1af441568364d47dd51ed2bda9a5bdbf4c0233f646b77a1219ab3ea365d387ba",
    "couple-simplex/outcomes.jsonl": "476ed833157fe95733b218b0ff05e835d8779f0b8b35b25ecdf7dcab5f68d763",
    "gap/base_eigenvalues.jsonl": "c0a94768b924f5abb2bf737df770c89f23345a2878360fd2a7842344f8c80a59",
    "gap/base_kernel.jsonl": "e4facd1161031d129b4184eb65d3363884fd165142c849235e4a17e4b624a8f1",
    "gap/edge_eigenvalues.jsonl": "df4c9925c975315341562c5c84a57905999820c932916aa32ac1e6dfd4bd3184",
    "gap/manifest.json": "b11bd7c6ecf81d6d6c1348bf14834b80d4f1d5ef7f02b124e3a72f484cbb4cab",
    "identity-matrix/manifest.json": "4142588e997e60f7a700b10deb7e0ef084d2d15b3900fb3a60cd93d65528c9e3",
    "identity-matrix/residuals.jsonl": "838a060674b8a77eb7e0a589989aa88b895284258f5faae70eec4ebb22a5bf01",
    "largeness/manifest.json": "da707de0ffa48865c4b3017df443c309889bf3d8877c233456d94d82acc5c3b0",
    "largeness/minima.jsonl": "74a1fa406281fe44054eccc5fecbc5912325f982197e5e17a050da028105d398",
    "lowerbound-matrix/manifest.json": "38008393dcd1d36e867e0fb7a24e54101566779985fa2382dc8093e9431ecfc6",
    "lowerbound-simplex/manifest.json": "11e5cdaad889a993944e358c03ab810ac0485b9aa79bd060e66b522e9ec76893",
    "lowerbound-simplex/points.jsonl": "2052aa223cd8e0c3094aa15d9e608518f5f3d199c22c4fb47f8dc5bb26eccda0",
    "oracle/manifest.json": "2af6e34b1a9da05554fb33f628e02882cb03f7a203bec46af09c95b1dddb52d8",
    "s-recursion/manifest.json": "22865caa165d332ca87fa8b57088bb3f98f3005a615f1600749b3097694dbe00",
    "s-recursion/srecursion.jsonl": "c4b04e10b4a85c21bda652c5e67ae2b081669eb35a300a36e716450593b80556",
}


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        for key in _VOLATILE:
            manifest.pop(key)
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("config_path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_desk_config_digests(config_path, tmp_path, capsys):
    config = ExperimentConfig.from_json_file(config_path)
    out = tmp_path / config.experiment
    assert run(config, out_dir=out) == 0
    capsys.readouterr()
    got = {f"{config.experiment}/{p.name}": _digest(p) for p in sorted(out.iterdir())}
    want = {k: v for k, v in GOLDEN.items() if k.startswith(config.experiment + "/")}
    assert got == want


@pytest.mark.parametrize("config_path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_desk_config_jsonl_digests(config_path, tmp_path, capsys):
    config = ExperimentConfig.from_json_file(config_path)
    out = tmp_path / config.experiment
    assert run(config, out_dir=out, fmt="jsonl") == 0
    capsys.readouterr()
    got = {f"{config.experiment}/{p.name}": _digest(p) for p in sorted(out.iterdir())}
    want = {k: v for k, v in GOLDEN_JSONL.items() if k.startswith(config.experiment + "/")}
    assert got == want
