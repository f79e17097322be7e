"""Byte-level pins on CLI outputs.

The digests are sha256 of the files written by the closed-form figures
(fig2, fig3, with their markers.json) and by ``cmd_rate`` on the two small
configs of test_cli. They do not depend on the BLAS thread count. A change
to any of them means the CLI output changed; refactors must keep them.
"""

import hashlib
import os

import pytest
from test_cli import BROAD_CONFIG, NARROW_CONFIG

from fgr.cli import EXIT_OK, RunConfig, cmd_figure, cmd_rate

FIGURE_DIGESTS = {
    "fig2": {
        "fig2_q_1.csv": "dbdaefdc3f3e4e1d817ea1f36da098fa88ef5eccc4e2f4386aa28816e7e3ab74",
        "fig2_q_10.csv": "e4080eb76112689b39761a510b97568748b6a245dc5ced96266addc0444d6fdc",
        "fig2_q_100.csv": "6d56b5414ff5523e38b002352e1f5340c6585dfd6868a4e48f618b151d4dab6d",
        "fig2_q_1000.csv": "3d27c36ba5b96221ffdeeec38e047c38d5d4fc981451be71fdbdb7565a201ebf",
        "markers.json": "ab9419fbc899c1077d30613a530bfb1d1d0d63e7595c295a9213c5fdac2ae9da",
    },
    "fig3": {
        "fig3_detuning_0.4.csv": "2b84cd7c530fe672db1461643d81578052d84308409cc354068c7fdad7a76628",
        "fig3_detuning_0.csv": "1432d76029ddcaa8461ab233fa9f430943876f021810c5f49036fa89223fd142",
        "fig3_detuning_1.csv": "cfd45fdeac95afb99b4beec25ccfa1d8d97f644efb81a22c7b9dade171c4f48d",
        "fig3_detuning_2.csv": "a367135d33858d0a54e8af0282644c947891bca292eecb2e56c62d2a4f738548",
        "fig3_detuning_5.csv": "13166185df0a9478c572e94e7685c3215e98832c0e439af5377fdd345966d507",
        "markers.json": "017891842775e84294d79c5865bf37a8752f61697c56ce4ee0947563efbbfbb0",
    },
}

RATE_DIGESTS = {
    "narrow": "5d9b189f7d6d5f2ae7fdfef15a044b0aef1627e1bd9dd2b3d51518a7e6a8b39b",
    "broad": "69e2a09c425e9dcf3f06dcc6b43c6d32732982b93ec5a4ff7f8d949c690e45eb",
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
