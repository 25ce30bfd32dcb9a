"""The benchmark's traced run looks maup's stage functions up by name.

``perfbench/tracing.py`` is loaded read-only from the checkout, so a local
test run catches a rename or a deletion that its stage table still needs.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from maup.phantom import PhantomSpec, generate_phantom
from maup.pipeline import build_export, execute_episode
from maup.prompting import PromptConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_stage_resolves():
    tracing = load_tracing()
    found, missing = tracing.resolve_stages()
    assert missing == []
    assert set(found) == set(tracing.STAGES)


def test_composed_stages_give_the_episode_bytes():
    tracing = load_tracing()
    found, _ = tracing.resolve_stages()
    ph = generate_phantom(PhantomSpec(family="two-lobe", contrast=0.4, noise=0.1, seed=3))
    for cfg in (PromptConfig(seed=3), PromptConfig(seed=3, np=False, n_regions=5)):
        ep = SimpleNamespace(
            cfg=cfg,
            support_features=ph.support_features,
            support_mask=ph.support_mask,
            query_features=ph.query_features,
        )
        _, text = tracing.compose(tracing.Tracer(), found, ep)
        res = execute_episode(ph.support_features, ph.support_mask, ph.query_features, cfg)
        want = build_export(res.prompts, res.n_regions, ph.query_features.height, ph.query_features.width)
        assert text == want.canonical_json()
