"""Moment-sequence toolkit for the one-sided tree-destruction limit law.

The limit law is determined by a gamma-type moment sequence; this package
generates that sequence and the local-time / exponential-functional
sequences it coincides with, cross-checks the connecting identities,
reconstructs densities by numerical inverse Mellin transform, and validates
everything against seeded Monte Carlo samplers.

Importing the package loads none of its modules, so that the CLI loads only
the modules its subcommand runs.  The first package-level name asked for (a
re-export, a module or ``__all__``) loads every module and binds every name
here, as eager imports would (PEP 562).
"""

__version__ = "0.1.0"


def _load() -> None:
    import importlib

    # import_module, not ``from . import``: that asks this module for each
    # name first, which would call __getattr__ again
    gammakit, moments, identities, mellin, montecarlo = (
        importlib.import_module(f"{__name__}.{name}")
        for name in ("gammakit", "moments", "identities", "mellin", "montecarlo")
    )
    names = {"log_gamma": gammakit.log_gamma, "log_gamma_complex": mellin.log_gamma_complex,
             "log_beta": gammakit.log_beta}
    # each module's __all__ is the one list of its public names
    for module in (moments, identities, mellin, montecarlo):
        names.update((name, getattr(module, name)) for name in module.__all__)
    globals().update(names, __all__=["__version__", *names])


def __getattr__(name: str):
    if "__all__" not in globals():
        _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list:
    if "__all__" not in globals():
        _load()
    return sorted(globals())
