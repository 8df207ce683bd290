"""Deterministic random-number helpers.

Every stochastic component of the library (data generators, model
initialisation, strategy tie-breaking, experiment repetition) accepts either
an integer seed or a :class:`numpy.random.Generator`.  Routing all of them
through :func:`ensure_rng` keeps experiments bit-for-bit reproducible while
still letting callers share one generator across components when they want
correlated streams.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigurationError

#: Seed used by components when the caller does not provide one.
DEFAULT_SEED = 20201218  # the paper's DOI registration date, for flavour

RngLike = "int | np.random.Generator | None"


def ensure_rng(seed_or_rng: "int | np.random.Generator | None" = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed_or_rng``.

    Parameters
    ----------
    seed_or_rng:
        ``None`` (use :data:`DEFAULT_SEED`), an integer seed, or an
        existing generator which is returned unchanged.

    Raises
    ------
    ConfigurationError
        If the argument is neither ``None``, an integer, nor a generator.
    """
    if seed_or_rng is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if isinstance(seed_or_rng, (int, np.integer)):
        if seed_or_rng < 0:
            raise ConfigurationError(f"seed must be non-negative, got {seed_or_rng}")
        return np.random.default_rng(int(seed_or_rng))
    raise ConfigurationError(
        f"expected an int seed or numpy Generator, got {type(seed_or_rng).__name__}"
    )


def rng_state(rng: np.random.Generator) -> dict:
    """The bit-generator state of ``rng`` as a JSON-serialisable dict.

    The default PCG64 state is plain Python ints already; bit generators
    whose state embeds numpy arrays (e.g. MT19937's key vector) have the
    arrays converted to tagged lists so the dict survives a JSON round
    trip.  :func:`rng_from_state` reverses the conversion exactly, so a
    generator restored from the returned dict produces the same stream
    as the original from this point on.
    """
    return _state_to_jsonable(rng.bit_generator.state)


def rng_from_state(state: dict) -> np.random.Generator:
    """Rebuild a generator from a :func:`rng_state` dict.

    Raises
    ------
    ConfigurationError
        If the state names an unknown bit generator or does not fit it.
    """
    if not isinstance(state, dict) or "bit_generator" not in state:
        raise ConfigurationError("not a bit-generator state dict")
    name = state["bit_generator"]
    bit_generator_cls = getattr(np.random, str(name), None)
    if bit_generator_cls is None or not isinstance(bit_generator_cls, type):
        raise ConfigurationError(f"unknown bit generator {name!r}")
    bit_generator = bit_generator_cls()
    try:
        bit_generator.state = _state_from_jsonable(state)
    except (KeyError, TypeError, ValueError) as error:
        raise ConfigurationError(f"malformed {name} state: {error!r}") from None
    return np.random.Generator(bit_generator)


def _state_to_jsonable(value):
    if isinstance(value, dict):
        return {key: _state_to_jsonable(entry) for key, entry in value.items()}
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": value.dtype.str}
    if isinstance(value, np.integer):
        return int(value)
    return value


def _state_from_jsonable(value):
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.asarray(value["__ndarray__"], dtype=np.dtype(value["dtype"]))
        return {key: _state_from_jsonable(entry) for key, entry in value.items()}
    return value


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Child streams do not overlap with each other or with the parent, so a
    multi-repeat experiment can hand one child to each repetition.
    """
    if n < 0:
        raise ConfigurationError(f"cannot spawn a negative number of generators: {n}")
    seeds = rng.integers(0, 2**63 - 1, size=n)
    return [np.random.default_rng(int(s)) for s in seeds]


def choice_cdf(p) -> np.ndarray:
    """The cumulative table ``Generator.choice(..., p=p)`` searches.

    Compute it once per distribution and pass it to :func:`choose`.
    """
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def choose(
    rng: np.random.Generator,
    items: np.ndarray,
    size=None,
    cdf: "np.ndarray | None" = None,
):
    """``rng.choice(items, size, p=p)`` for ``cdf = choice_cdf(p)``, or
    ``rng.choice(items, size)`` when ``cdf`` is ``None``.

    ``Generator.choice`` re-validates ``p`` and recomputes its cumulative
    sum on every call, which costs more than the draw inside a per-token
    loop.  With ``replace=True`` it draws
    ``cdf.searchsorted(rng.random(size), side="right")``, and without
    ``p`` it draws ``rng.integers(0, len(items), size)``; this makes the
    same calls, so it returns the same values, dtype and shape and leaves
    the generator in the same state.
    """
    if cdf is None:
        return items[rng.integers(0, len(items), size=size)]
    return items[cdf.searchsorted(rng.random(size), side="right")]
