"""Package export lists name only what the packages define."""

import importlib

PACKAGES = ("chainlens.eth", "chainlens.chains", "chainlens.discovery")


def test_every_exported_name_resolves():
    missing = []
    for package in PACKAGES:
        module = importlib.import_module(package)
        missing += [f"{package}.{name}" for name in module.__all__
                    if not hasattr(module, name)]
    assert missing == []
