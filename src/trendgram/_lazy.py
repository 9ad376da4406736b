"""Stage names that a module binds as its own globals on first use.

`trendgram.cli` and `trendgram.trends` name the stage functions they call
in a `{module: names}` map and bind them from there when first needed, so
importing them loads no stage they do not run. A bound name stays
patchable as `<module>.<name>`, before it is first used too.
"""

from importlib import import_module


def bind(namespace, stages, *modules):
    """Bind in `namespace` the names that `stages` lists for `modules`
    (every module in `stages` when none is given), importing each from
    this package; a name already set, such as a wrapper patched in, is
    kept."""
    for module in modules or stages:
        stage = import_module(f"{__package__}.{module}")
        for name in stages[module]:
            namespace.setdefault(name, getattr(stage, name))


def module_getattr(namespace, stages):
    """A PEP 562 `__getattr__` for the module whose globals are
    `namespace`: a name of `stages` is bound, with its module's other
    names, on first access."""
    module_of = {name: module for module, names in stages.items() for name in names}

    def __getattr__(name):
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        bind(namespace, stages, module)
        return namespace[name]

    return __getattr__
