import inspect

import relay_aloha


def test_every_exported_name_imports():
    for name in relay_aloha.__all__:
        assert getattr(relay_aloha, name) is not None, name
    namespace = {}
    exec("from relay_aloha import *", namespace)
    assert set(relay_aloha.__all__) <= set(namespace)


REMOVED = ("SeriesTruncation", "default_truncation", "poisson_pmf",
           "log_binomial", "q_success_downlink_arrival", "EPS_FLOOR",
           "K_CLOSED_MAX")


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in relay_aloha.__all__, name
        assert not hasattr(relay_aloha, name), name
        for module in ("kernels", "model"):
            assert not hasattr(getattr(relay_aloha, module), name), name


def test_no_public_callable_takes_a_cache():
    modules = [relay_aloha] + [
        getattr(relay_aloha, m)
        for m in ("kernels", "model", "optimize", "simulate", "sweep", "cli")
    ]
    seen = 0
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):  # builtins without a signature
                continue
            seen += 1
            for knob in ("cache", "trunc", "use_k2_shortcut"):
                assert knob not in params, f"{module.__name__}.{name}"
    assert seen > 40
