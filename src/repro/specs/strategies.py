"""Strategy specs: nested, pure-JSON descriptions of query strategies.

A wrapper strategy's spec embeds its base strategy's spec under the
``"base"`` param, so ``WSHS(Entropy(), window=5)`` is::

    {"kind": "wshs",
     "params": {"base": {"kind": "entropy", "params": {}, "version": 1},
                "window": 5},
     "version": 1}

LHS references its trained ranker by *file path* (the ``"ranker"``
param): rankers are data artifacts, not configuration, so the spec names
the artifact instead of inlining it.  ``spec_of_strategy`` on an LHS
instance therefore requires the ranker to know which file it was loaded
from (:func:`repro.persistence.load_lhs_ranker` records it); an LHS
around an in-memory ranker has no JSON description and raises
:class:`~repro.exceptions.SpecError`.

``parse_strategy_shorthand`` turns the CLI's compact ``name`` /
``wrapper:base`` strings into full specs, so the flag-based and
config-file construction paths are literally the same code.
"""

from __future__ import annotations

from ..core.strategies import (
    BALD,
    EGL,
    FHS,
    HKLD,
    HUS,
    LHS,
    MMR,
    MNLP,
    QBC,
    WSHS,
    DensityWeighted,
    EGLWord,
    Entropy,
    LeastConfidence,
    Margin,
    Random,
)
from ..exceptions import SpecError
from .core import Spec, SpecRegistry

STRATEGY_REGISTRY = SpecRegistry("strategy")

#: Wrapper kinds the CLI shorthand ``wrapper:base`` recognises.
SHORTHAND_WRAPPERS = ("hus", "wshs", "fhs", "lhs")


def register_simple_strategy(kind: str, cls: type, param_names: "tuple[str, ...]" = ()) -> None:
    """Register a strategy whose params mirror its attributes."""

    def build(params: dict) -> object:
        return cls(**params)

    def params_of(strategy: object) -> dict:
        return {name: getattr(strategy, name) for name in param_names}

    STRATEGY_REGISTRY.register(kind, build, cls=cls, params_of=params_of)


def register_wrapper_strategy(kind: str, cls: type, param_names: "tuple[str, ...]" = ()) -> None:
    """Register a strategy wrapping a base strategy (nested ``base`` spec)."""

    def build(params: dict) -> object:
        if "base" not in params:
            raise SpecError(f"strategy kind {kind!r} needs a 'base' param")
        base = build_strategy(params.pop("base"))
        return cls(base, **params)

    def params_of(strategy: object) -> dict:
        params = {"base": spec_of_strategy(strategy.base).to_dict()}
        params.update({name: getattr(strategy, name) for name in param_names})
        return params

    STRATEGY_REGISTRY.register(kind, build, cls=cls, params_of=params_of)


def _build_lhs(params: dict) -> LHS:
    if "base" not in params:
        raise SpecError("strategy kind 'lhs' needs a 'base' param")
    if not params.get("ranker"):
        raise SpecError(
            "strategy kind 'lhs' needs a 'ranker' param naming a ranker "
            "file written by train_lhs_ranker/save_lhs_ranker"
        )
    from ..persistence import load_lhs_ranker

    base = build_strategy(params.pop("base"))
    ranker = load_lhs_ranker(params.pop("ranker"))
    candidates = [
        build_strategy(candidate)
        for candidate in params.pop("candidate_strategies", [])
    ]
    return LHS(base, ranker, candidate_strategies=candidates or None, **params)


def _lhs_params_of(strategy: LHS) -> dict:
    source = getattr(strategy.ranker, "source", None)
    if not source:
        raise SpecError(
            "cannot serialise an LHS strategy whose ranker was not loaded "
            "from a file (save it with save_lhs_ranker and reload first)"
        )
    return {
        "base": spec_of_strategy(strategy.base).to_dict(),
        "ranker": str(source),
        "candidate_strategies": [
            spec_of_strategy(candidate).to_dict()
            for candidate in strategy.candidate_strategies
        ],
        "candidate_factor": strategy.candidate_factor,
    }


register_simple_strategy("random", Random)
register_simple_strategy("entropy", Entropy)
register_simple_strategy("lc", LeastConfidence)
register_simple_strategy("margin", Margin)
register_simple_strategy("egl", EGL)
register_simple_strategy("egl-word", EGLWord)
register_simple_strategy("mnlp", MNLP)
register_simple_strategy("bald", BALD, ("n_draws",))
register_simple_strategy("qbc", QBC, ("committee_size",))
register_simple_strategy("hkld", HKLD, ("committee_size",))
register_wrapper_strategy("density", DensityWeighted, ("beta",))
register_wrapper_strategy("mmr", MMR, ("balance",))
register_wrapper_strategy("hus", HUS, ("window",))
register_wrapper_strategy("wshs", WSHS, ("window",))
register_wrapper_strategy(
    "fhs",
    FHS,
    ("window", "score_weight", "fluctuation_weight", "scale_fluctuation"),
)
STRATEGY_REGISTRY.register("lhs", _build_lhs, cls=LHS, params_of=_lhs_params_of)


def build_strategy(spec) -> object:
    """Build a strategy (recursively building nested bases) from its spec."""
    return STRATEGY_REGISTRY.build(spec)


def spec_of_strategy(strategy: object) -> Spec:
    """The spec that rebuilds ``strategy``, nested bases included."""
    return STRATEGY_REGISTRY.spec_of(strategy)


def strategy_kinds() -> list[str]:
    """Sorted registered strategy kinds."""
    return STRATEGY_REGISTRY.kinds()


def parse_strategy_shorthand(
    text: str, window: int = 3, ranker_path: "str | None" = None
) -> Spec:
    """Turn a CLI ``name`` / ``wrapper:base`` string into a full spec.

    ``wrapper`` must be one of :data:`SHORTHAND_WRAPPERS`; ``lhs:<base>``
    additionally needs ``ranker_path``.  The plain-``name`` form builds
    the kind with default params.
    """
    if not isinstance(text, str):
        raise SpecError(f"a strategy shorthand must be a string, got {text!r}")
    wrapper_key, _, base_key = text.lower().partition(":")
    if not base_key:
        return Spec(kind=wrapper_key)
    base = Spec(kind=base_key).to_dict()
    if wrapper_key == "lhs":
        if not ranker_path:
            raise SpecError("lhs:<base> requires --ranker <file>")
        return Spec(kind="lhs", params={"base": base, "ranker": str(ranker_path)})
    if wrapper_key in SHORTHAND_WRAPPERS:
        return Spec(kind=wrapper_key, params={"base": base, "window": window})
    raise SpecError(f"unknown strategy wrapper {wrapper_key!r}")
