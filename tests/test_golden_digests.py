"""Golden output digests: the bytes of three output trees, pinned by SHA-256.

Each tree is rebuilt through `cli.main` and every file's digest is compared
with `tests/golden_digests.json`. A change that alters output bytes on
purpose regenerates that file in the same change:

    PYTHONPATH=src python tests/test_golden_digests.py
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from scenecast.cli import main

GOLDEN = Path(__file__).with_name("golden_digests.json")

# each tree's commands, run in order with {root} standing for the tree's directory
TREES = {
    "demo_seed0": [["demo", "--seed", "0", "--out-dir", "{root}"]],
    "demo_seed1_gt_identity": [
        ["demo", "--seed", "1", "--future", "gt", "--refiner", "identity", "--out-dir", "{root}"],
    ],
    "synth_warp_fuse": [
        ["synth", "--kind", "constant_turn", "--turn-rate", "0.02", "--dims", "64,96,16",
         "--frames", "6", "--speed", "1.0", "--start-y", "2.0", "--seed", "3",
         "--out-dir", "{root}/seq"],
        ["warp", "--frames-dir", "{root}/seq", "--refiner", "fill", "--out-dir", "{root}/warp"],
        ["fuse", "--frames-dir", "{root}/seq", "--future", "pseudo", "--out-dir", "{root}/fuse"],
    ],
}


def build_tree(name: str, root: Path) -> dict:
    """Run a tree's commands into root; {relative path: SHA-256 hex} of every file."""
    for argv in TREES[name]:
        code = main([a.replace("{root}", str(root)) for a in argv])
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("name", sorted(TREES))
def test_output_tree_matches_golden_digests(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())[name]
    got = build_tree(name, tmp_path)
    for path in sorted(set(golden) | set(got)):
        if golden.get(path) != got.get(path):
            pytest.fail(
                f"{name}: {path} differs: golden {golden.get(path)}, got {got.get(path)}"
            )


if __name__ == "__main__":
    digests = {}
    for name in sorted(TREES):
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = build_tree(name, Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, digests.values()))} digests to {GOLDEN}", file=sys.stderr)
