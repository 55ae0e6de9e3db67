"""README's "Library use" code runs as written on a synthesized bundle, and
its config example is exactly the layout the config model writes, so a
signature or config change cannot leave the README stale."""

import json
import re
from pathlib import Path

from pose3dtrack.ingest import config_from_dict, config_to_dict
from pose3dtrack.synth import builtin, write_scenario_bundle

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_library_use_blocks_run_on_a_synthesized_bundle(tmp_path, monkeypatch, capsys):
    write_scenario_bundle(builtin("parallel_walk"), tmp_path / "scene")
    monkeypatch.chdir(tmp_path)
    blocks = library_use_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:  # later blocks use the earlier blocks' names
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and printed[0].startswith("{'mota': 1.0,")
    # The two-step lift by hand gives the box run_sequence lifted.
    det, tracks = namespace["det"], namespace["tracks"]
    assert [s.box3d for t in tracks for s in t.states if s.detection is det] \
        == [namespace["box3d"]]


def test_config_example_is_the_layout_the_model_writes():
    section = README.read_text(encoding="utf-8").split("**Config** (`config.json`)", 1)[1]
    example = json.loads(re.search(r"```json\n(.*?)```", section, flags=re.S).group(1))
    assert config_to_dict(config_from_dict(example)) == example
