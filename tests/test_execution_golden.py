"""Cross-commit golden pin: every executor against itself at 8721d11.

``tests/data/execution_golden.json`` holds sha256 digests of records,
``stats.to_dict()``, metrics snapshot, exported trace and provenance
payload for each executor name x workers x batch size x shard degree over
eight plan shapes, generated by ``scripts/make_execution_golden.py`` *before*
the executors were collapsed onto one core.  The equivalence grids say the
five schedules agree with each other; this says none of them moved.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (Path(__file__).resolve().parent.parent
           / "scripts" / "make_execution_golden.py")
_spec = importlib.util.spec_from_file_location("make_execution_golden",
                                               _SCRIPT)
golden_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_script)

GOLDEN = json.loads(golden_script.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_the_whole_grid():
    expected = {
        f"{shape}/{name}/w{workers}/b{batch}/s{shards or 0}"
        for shape in golden_script.shapes()
        for name, workers, batch, shards in golden_script.grid()
    }
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("shape_name", sorted(golden_script.shapes()))
def test_digests_match_parent_commit(shape_name):
    build = golden_script.shapes()[shape_name]
    drifted = []
    for name, workers, batch, shards in golden_script.grid():
        key = f"{shape_name}/{name}/w{workers}/b{batch}/s{shards or 0}"
        observed = golden_script.digest_run(
            shape_name, build, name, workers, batch, shards
        )
        drifted.extend(
            f"{key}:{field}" for field, digest in observed.items()
            if GOLDEN[key][field] != digest
        )
    assert not drifted, f"payloads moved since the golden commit: {drifted}"
