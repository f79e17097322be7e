"""Byte-level pins on CLI outputs.

The digests are sha256 of the files written by the narrowband figures
(fig2, fig3, with their markers.json), integrated numerically at the
default grid and tolerance, and by ``cmd_rate`` on the two small configs
of test_cli. They do not depend on the BLAS thread count. A change
to any of them means the CLI output changed; refactors must keep them.
"""

import hashlib
import os

import pytest
from test_cli import BROAD_CONFIG, NARROW_CONFIG

from fgr.cli import EXIT_OK, RunConfig, cmd_figure, cmd_rate

FIGURE_DIGESTS = {
    "fig2": {
        "fig2_q_1.csv": "f5715152249712420a9ee44199503aa1a0c4253cb0981623856454291fc46e3c",
        "fig2_q_10.csv": "ad58b6e1f0ed8c51e595913e324ce62417ae7db3d374ce33e0d6f05a6c061f76",
        "fig2_q_100.csv": "6154647b566ae9118e33187bc035a134c653109974e2bcefe9319a04a8b99ff5",
        "fig2_q_1000.csv": "07118a6f6e7cf9d12640c97b0921f07b0259619fbb1350121c326a44669aa54f",
        "markers.json": "ab9419fbc899c1077d30613a530bfb1d1d0d63e7595c295a9213c5fdac2ae9da",
    },
    "fig3": {
        "fig3_detuning_0.4.csv": "1003b4fc74729d1081dc9dba8e6dfd6d05af946d832d4adce61a6ccd7793cbec",
        "fig3_detuning_0.csv": "243edbddfadbb12ae8636ee079225ca861c5558ce831da2a5f94bbe003c7af0f",
        "fig3_detuning_1.csv": "e1c6b23785b738e9e98bc558aae4deb8371bc6d5c5c36203fa915bebacd2f07b",
        "fig3_detuning_2.csv": "6621fc87e6babf69ce6624374d692f27ff834e16c760c1cc987fc13d7383ee37",
        "fig3_detuning_5.csv": "eb69a2e79ac04fd2bcf1e3bf0ed54a98c20b204072874e3c613fabe8c9c7fff9",
        "markers.json": "017891842775e84294d79c5865bf37a8752f61697c56ce4ee0947563efbbfbb0",
    },
}

RATE_DIGESTS = {
    "narrow": "29d409d884401e718d754a1ee7e277e231da4a7e0e03d656ec366c6382e73886",
    "broad": "d75ae0e8473caddb209d7bd81d2ba8109f3bd6d1ea79ff4fe51281d1ae40e0e7",
}


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("figure_id", sorted(FIGURE_DIGESTS))
def test_closed_form_figure_bytes(tmp_path, figure_id):
    assert cmd_figure(figure_id, str(tmp_path)) == EXIT_OK
    got = {name: sha256(tmp_path / name) for name in sorted(os.listdir(tmp_path))}
    assert got == FIGURE_DIGESTS[figure_id]


@pytest.mark.parametrize(
    "name, config", [("narrow", NARROW_CONFIG), ("broad", BROAD_CONFIG)]
)
def test_rate_curve_bytes(tmp_path, name, config):
    out = tmp_path / "curve.csv"
    data = dict(config, output={"path": str(out), "format": "csv"})
    assert cmd_rate(RunConfig.from_json_dict(data)) == EXIT_OK
    assert sha256(out) == RATE_DIGESTS[name]
