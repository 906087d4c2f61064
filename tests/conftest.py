"""Shared fixtures: parsed example networks from tests/data."""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from crn1d import ReactionNetwork, pair_sign_data, parse_network, sign_profile

DATA = Path(__file__).parent / "data"

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def load(name: str) -> ReactionNetwork:
    return parse_network((DATA / f"{name}.crn").read_text())


def bi_profile(net: ReactionNetwork, struct):
    """Sign profile of a two-reaction network, the first reaction as base."""
    return sign_profile(*pair_sign_data(net, 0, 1), struct.lambdas[1])


def _network_fixture(name):
    @pytest.fixture(scope="session", name=name)
    def fix():
        return load(name)

    return fix


ga = _network_fixture("ga")
gb = _network_fixture("gb")
gc = _network_fixture("gc")
gd = _network_fixture("gd")
ad_example = _network_fixture("ad_example")
five_species = _network_fixture("five_species")
gh = _network_fixture("gh")
w1 = _network_fixture("w1")
w2 = _network_fixture("w2")
nb = _network_fixture("nb")
nb_mirror = _network_fixture("nb_mirror")
eh_empty = _network_fixture("eh_empty")
example42 = _network_fixture("example42")
free_balance = _network_fixture("free_balance")
pair_excluded = _network_fixture("pair_excluded")
lift_passive = _network_fixture("lift_passive")
