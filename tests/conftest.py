"""Shared fixtures: small calibrated datasets and feature instances."""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.data.synthetic import AbusiveDatasetGenerator
from repro.data.tweet import Tweet, UserProfile
from repro.streamml.instance import Instance


@pytest.fixture(scope="session")
def small_stream() -> List[Tweet]:
    """2k-tweet synthetic stream (session-cached; generation is pure)."""
    return AbusiveDatasetGenerator(n_tweets=2000, seed=123).generate_list()


@pytest.fixture(scope="session")
def medium_stream() -> List[Tweet]:
    """8k-tweet synthetic stream for accuracy-sensitive tests."""
    return AbusiveDatasetGenerator(n_tweets=8000, seed=7).generate_list()


@pytest.fixture()
def gaussian_instances() -> List[Instance]:
    """Linearly separable-ish 2-class Gaussian instances."""
    rng = random.Random(0)
    instances = []
    for _ in range(2000):
        label = rng.random() < 0.5
        x = (
            rng.gauss(2.0 if label else 0.0, 1.0),
            rng.gauss(0.0, 1.0),
            rng.gauss(-1.0 if label else 1.0, 1.5),
        )
        instances.append(Instance(x=x, y=int(label)))
    return instances


@pytest.fixture()
def example_tweet() -> Tweet:
    """One hand-built labeled tweet."""
    user = UserProfile(
        user_id="42",
        screen_name="tester",
        created_at=0.0,
        statuses_count=1000,
        listed_count=3,
        followers_count=250,
        friends_count=300,
    )
    return Tweet(
        tweet_id="1",
        text="@alex you are a fucking IDIOT #mad https://t.co/abc",
        created_at=86400.0 * 365,
        user=user,
        label="abusive",
    )


def make_instance(x, y=None, **kwargs) -> Instance:
    """Terse instance constructor for tests."""
    return Instance(x=tuple(float(v) for v in x), y=y, **kwargs)


def flip_model_digit(path) -> None:
    """Flip one digit inside a state file's Hoeffding-tree statistics.

    The JSON still parses and the model still loads: only the file's
    sha256 can tell the state changed.
    """
    raw = bytearray(path.read_bytes())
    at = raw.index(b'"mean":', raw.index(b'"model":{"schema_version"')) + 7
    while not chr(raw[at]).isdigit():
        at += 1
    raw[at] = ord(str((int(chr(raw[at])) + 1) % 10))
    path.write_bytes(bytes(raw))
