"""Property: every config the program echoes loads back to the same config."""

import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from strategies import documents  # noqa: E402

from milnesea.cli import main  # noqa: E402
from milnesea.scenario import config_to_dict, load_config  # noqa: E402


@settings(max_examples=300, deadline=None)
@given(documents(), st.one_of(st.none(), st.integers(0, 2 ** 64 - 1)))
def test_echo_loads_back_equal(doc, seed):
    if seed is not None:
        doc["seed"] = seed
    config = load_config(json.dumps(doc))
    echo = config_to_dict(config)
    assert load_config(json.dumps(echo)) == config
    assert config_to_dict(load_config(json.dumps(echo))) == echo


@settings(max_examples=25, deadline=None)
@given(documents(), st.integers(0, 2 ** 64 - 1))
def test_seed_override_echo_loads_back(doc, seed):
    # no products: the run only writes result.json with the echoed config
    doc["outputs"] = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out-dir", tmp,
                     "--seed", str(seed)]) == 0
        echo = json.loads((Path(tmp) / "result.json").read_text())["config"]
    doc["seed"] = seed
    assert load_config(json.dumps(echo)) == load_config(json.dumps(doc))
