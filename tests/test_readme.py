import os
import re

import pytest

from canpath.canlog import write_log
from canpath.scenarios import straight_1km
from canpath.synthgen import simulate
from canpath.trackeval import save_gpx

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    # the example's trip.log, roads.txt and truth.gpx: a simulated 1 km
    # drive due east from the example's start pose
    with open(README, encoding="utf-8") as fp:
        text = fp.read()
    (example,) = re.findall(r"## Library example\n\n```python\n(.*?)```", text, re.S)
    scenario = straight_1km()
    sim = simulate(scenario)
    assert sim.start.position == (44.65, 10.92) and sim.start.bearing == pytest.approx(90.0, abs=1e-3)
    write_log(sim.frames, str(tmp_path / "trip.log"))
    scenario.graph.save(str(tmp_path / "roads.txt"))
    save_gpx(sim.truth, str(tmp_path / "truth.gpx"))
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "windows processed: 1000"
    assert float(out[-1]) >= 0.95
    assert (tmp_path / "trip.gpx").read_text().startswith("<?xml")
