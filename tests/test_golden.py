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
        "fig2_q_1.csv": "f4417207b82c8a740315da01e527bcb73c1a2a3aa04b532a16ba1d9e43dec253",
        "fig2_q_10.csv": "650e5541156363763d97e1ee704077a5142f36ed8f509fe5595d725498f39155",
        "fig2_q_100.csv": "a5a0a7cf91b864ec84d29f34db21caf2575947bf0f0cb741b4615fad23f8da9c",
        "fig2_q_1000.csv": "ff87a8485d5ed643c8eb064adafe1b515bdb48925f07747f8bb74183f38f4753",
        "markers.json": "ab9419fbc899c1077d30613a530bfb1d1d0d63e7595c295a9213c5fdac2ae9da",
    },
    "fig3": {
        "fig3_detuning_0.4.csv": "11d0d05d7a2ff7a01940537f66c572a8654f015a2d77b4337f956f60f2f3256d",
        "fig3_detuning_0.csv": "a4864eadd3c04fe73c6ed7a99c06b299f1fb8acc61ac3bf938996f24b0e8edfd",
        "fig3_detuning_1.csv": "cc539045aa65fcc06a330e13f1c733d692d83133198053f60e1b7a7163d394b4",
        "fig3_detuning_2.csv": "08190b8f20d4883c2cce88d3eb467351ff414626d539633f79db4f54539f4292",
        "fig3_detuning_5.csv": "bbf8c3534832c1e0586f20e42b7848ce53ca71ee45d56635c1e59785ec8623e1",
        "markers.json": "017891842775e84294d79c5865bf37a8752f61697c56ce4ee0947563efbbfbb0",
    },
}

RATE_DIGESTS = {
    "narrow": "915d7931a634d676dbb06c3a494f84f2409c77842986c33d33e94a75ccf1fb94",
    "broad": "b8dd916c0540f6c0a8f9cfcce51f13ae08c51ebd130b907017e717b90aabd4f3",
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
