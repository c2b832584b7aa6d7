"""Golden outputs: each command's exit code, stdout and CSV files, pinned by
one SHA-256 digest per command in ``golden_digests.json``.

The digests cover the commands that ``bench/digests.json`` does not pin
(``all --seed 42`` and the ``--levels 7`` f2-vanish command are checked
there).  Summary JSON files are left out: they hold wall times.  To print the
digests of the current tree, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from barnorm.cli import main

COMMANDS = (
    *(f"all --seed {seed}" for seed in range(43, 52)),
    "norms --p 1.5 --q 2.5",
    "diffuse --p 1.5 --q inf",
    "pushforward --hom z-to-cyclic5 --p 1.5 --trials 30",
    "growth",
    "compare-pq --q inf --trials 20",
    "f2-vanish --levels 8 --norms 0:3,0:2,1:2.5",
    "f2-vanish --levels 9 --norms 0:3,0:2,1:2.5",
)
DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "golden_digests.json").read_text(
        encoding="utf-8"))


def command_digest(command: str, outdir: Path) -> str:
    """SHA-256 over the exit code, stdout, and every CSV's name and bytes of
    ``barnorm <command> --outdir <outdir>``; each field is length-prefixed."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*command.split(), "--outdir", str(outdir)])
    fields = [str(code).encode(), stdout.getvalue().encode()]
    for path in sorted(outdir.glob("*.csv")):
        fields += [path.name.encode(), path.read_bytes()]
    digest = hashlib.sha256()
    for field in fields:
        digest.update(len(field).to_bytes(8, "big") + field)
    return digest.hexdigest()


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_digest(command, tmp_path, monkeypatch):
    monkeypatch.delenv("BARNORM_ENUM_CAP", raising=False)
    assert command_digest(command, tmp_path) == DIGESTS[command]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        print(json.dumps({command: command_digest(command, Path(scratch, str(i)))
                          for i, command in enumerate(COMMANDS)},
                         indent=2))
