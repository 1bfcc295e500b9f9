"""Complete characterization of 4/p = 1/x + 1/y + 1/z over primes.

Witness search certifies solutions from a modular condition on
divisors of x*x; recovery maps any solution back to its unique
witness; an independent brute-force oracle cross-validates the
two-way correspondence; range scans verify that every prime admits
a solution and collect residue-class statistics; the report module
tabulates and plots the admissible offsets.

Each module's __all__ is its list of public names; the package
re-exports all of them, bound on first use, so `import
erdos_straus.cli` and the scan, properties, check and solve commands
never load recover or report.
"""

__version__ = "1.0.0"

_MODULES = ("arith", "errors", "oracle", "recover", "report", "scan", "witness")


def __getattr__(name: str) -> object:
    # Python calls this only for names not bound here; the first call binds them all.
    if "__all__" not in globals():
        from importlib import import_module
        names = ["__version__"]
        for module in (import_module(f"{__name__}.{m}") for m in _MODULES):
            names += module.__all__
            globals().update((n, getattr(module, n)) for n in module.__all__)
        globals()["__all__"] = names
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    __getattr__("__all__")
    return sorted(globals())
