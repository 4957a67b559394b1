"""Tiered Hypothesis settings profiles, selected via ``REPRO_HYPOTHESIS_PROFILE``.

One registry instead of per-test ``@settings(max_examples=...)`` literals
scattered through the suite: every property test declares *which tier of
scrutiny it needs* and the environment decides how hard that tier runs.

The tiers:

``determinism``
    Cheap, pure-function bit-identity properties (vectorised kernel vs
    scalar reference, shard-range tiling).  Each example costs microseconds,
    so the budget is large — these are the tests where a rare input shape
    (an aligned length, an all-ambiguous read) is the whole point.

``standard``
    The default for ordinary property tests: moderate example budget.

``stateful``
    :class:`hypothesis.stateful.RuleBasedStateMachine` runs, where one
    "example" is a whole multi-rule interleaving that builds real indexes
    and writes real WAL files.  Few examples, deeper steps, and the health
    checks that misfire on expensive setup are suppressed.

All tiers disable deadlines: the suite runs under thread-count and CI-load
variation that makes per-example wall-clock limits pure flake.

**Tier-1 is a function of the code alone.**  The three tiers run with
``derandomize=True`` (examples derive from each test's source, not from a
random seed) and ``database=None`` (nothing under ``.hypothesis/`` is read or
written), so a run can neither be decided by an example some earlier run
saved nor differ from the run before it.  Inline ``@settings(...)`` literals
inherit both from the loaded profile.

``thorough``
    The searching mode, for a nightly or a bug hunt:
    ``REPRO_HYPOTHESIS_PROFILE=thorough`` re-registers every tier with
    random seeds, the example database on and four times the example budget
    (twice the steps for ``stateful``).  A failure it finds is replayed from
    the database on the next ``thorough`` run; pin it as a plain test before
    relying on tier-1 to keep it fixed.

Select a profile per run with ``REPRO_HYPOTHESIS_PROFILE=<name>`` — e.g. CI
smoke can run everything at the ``stateful`` budget — defaulting to each
test's declared tier otherwise (the ``standard`` profile is loaded globally;
individual tests opt into other tiers with the :func:`tier` decorator).
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, settings

THOROUGH = os.environ.get("REPRO_HYPOTHESIS_PROFILE") == "thorough"
_MODE = {} if THOROUGH else {"derandomize": True, "database": None}
_SCALE = 4 if THOROUGH else 1

settings.register_profile(
    "determinism",
    max_examples=300 * _SCALE,
    deadline=None,
    **_MODE,
)

settings.register_profile(
    "standard",
    max_examples=100 * _SCALE,
    deadline=None,
    **_MODE,
)

settings.register_profile(
    "stateful",
    max_examples=25 * _SCALE,
    stateful_step_count=50 if THOROUGH else 25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    **_MODE,
)

# Loaded globally by ``REPRO_HYPOTHESIS_PROFILE=thorough``: bare ``@given``
# tests then run at the (scaled, random) ``standard`` budget.
settings.register_profile("thorough", settings.get_profile("standard"))


def tier(name: str) -> settings:
    """The settings instance registered for tier *name* (usable as a decorator).

    ``@tier("determinism")`` on a ``@given`` test replaces an inline
    ``@settings(max_examples=..., deadline=None)`` literal, and
    ``tier("stateful")`` decorates a state-machine class.  Raises
    ``KeyError`` for unregistered names — a typo'd tier should fail
    loudly, not silently run at defaults.
    """
    return settings.get_profile(name)


def load_active_profile() -> str:
    """Load the globally active profile; returns its name.

    The environment variable overrides everything — when set, *every*
    test's tier decorator still applies, but the global default (tests
    with bare ``@given``) follows the variable.
    """
    name = os.environ.get("REPRO_HYPOTHESIS_PROFILE", "standard")
    settings.load_profile(name)
    return name
