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
        "fig2_q_1.csv": "e1d3a717b76b037516486f8973ec3e662715dc57cf2b318c7b6202068ebcf79c",
        "fig2_q_10.csv": "e113136f679f1ba1df281a75d043706eb8238aba86ea7563070087c024ae0a50",
        "fig2_q_100.csv": "e473ec324e28ca388ff6fb77fac8c482ecb5279916c3da6efbfaaee3bff68e04",
        "fig2_q_1000.csv": "3c4771412c6c67ef8d8a9f29f85b4c946e9bb7d2f2e339211cee00aa9f9a7e37",
        "markers.json": "ab9419fbc899c1077d30613a530bfb1d1d0d63e7595c295a9213c5fdac2ae9da",
    },
    "fig3": {
        "fig3_detuning_0.4.csv": "8065964ccd326a95c2cea4f608490c87764d0dfd2ddecac1ae805c77ef54dbe3",
        "fig3_detuning_0.csv": "bcf6462a0563e3adb492cac28ced6b5b5425eeddd708c6f6d0c86b8614d1719c",
        "fig3_detuning_1.csv": "3ba0e64c825fbc4948a2e5c0a596d035c1c003fb067291745378c3b0854dfdc5",
        "fig3_detuning_2.csv": "71c076972a48acc21ced191d026377929a305dc851ff0fb0465ff922187314b7",
        "fig3_detuning_5.csv": "e26e9556666bf12296a3b465e4ca139ed676953252b7b6ac45b3421b25e197d6",
        "markers.json": "017891842775e84294d79c5865bf37a8752f61697c56ce4ee0947563efbbfbb0",
    },
}

RATE_DIGESTS = {
    "narrow": "11aa095b6454711f864988fc3b6e530d9166948a58921ef74cba14c1be2da56e",
    "broad": "b920c1c04ead6bf1ba20725e353792150b85656d66596c70b319bafa0ef9ab09",
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
