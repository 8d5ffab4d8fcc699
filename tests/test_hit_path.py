"""The translation-cache hit path: per-loop memos, shared kernel ops and
the bulk-round code-cache model must all be observationally identical
to recomputing everything on every call."""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from repro import obs, perf
from repro.accelerator import INFINITE_LA, PROPOSED_LA
from repro.experiments.static_tradeoffs import DRIFTED_LATENCIES
from repro.ir.ops import Imm, Operation, Reg
from repro.ir.opcodes import Opcode
from repro.perf.digest import digest_of, loop_digest, loop_memo, options_digest
from repro.vm import translator
from repro.vm.codecache import CodeCache
from repro.vm.runtime import LoopOutcome, VirtualMachine, VMConfig
from repro.vm.translator import (
    TranslationOptions,
    invalidate_translation,
    translate_loop,
    translation_key,
)
from repro.workloads import kernels as K


@pytest.fixture(autouse=True)
def _fresh_caches():
    perf.clear_caches()
    yield
    perf.clear_caches()


# -- the bulk-round LRU model ---------------------------------------------------

def _oracle_count(cache: CodeCache, outcomes: list[LoopOutcome]) -> None:
    """The per-invocation round-robin loop, one lookup at a time."""
    accelerated = [o for o in outcomes if o.accelerated]
    remaining = {o.name: o.invocations for o in accelerated}
    translations = {o.name: 0 for o in accelerated}
    while any(v > 0 for v in remaining.values()):
        for o in accelerated:
            if remaining[o.name] <= 0:
                continue
            remaining[o.name] -= 1
            if cache.lookup(o.name) is None:
                cache.insert(o.name, o.name)
                translations[o.name] += 1
    for o in accelerated:
        o.translations_performed = translations[o.name]


def _outcome(name: str, invocations: int, accelerated: bool = True
             ) -> LoopOutcome:
    return LoopOutcome(
        name=name, accelerated=accelerated, reason=None,
        invocations=invocations, trip_count=1,
        scalar_cycles_per_invocation=1.0, accel_cycles_per_invocation=0.5,
        translation_instructions=0.0, translations_performed=0)


def _random_case(rng: random.Random):
    capacity = rng.randint(1, 6)
    names = [f"k{i}" for i in range(rng.randint(1, 10))]
    if rng.random() < 0.2:  # a repeated loop name shares one counter
        names.append(rng.choice(names))
    levels = [0, 1, 2, 3, rng.randint(4, 40), rng.randint(40, 300)]
    outcomes = [_outcome(name, rng.choice(levels),
                         accelerated=rng.random() < 0.9)
                for name in names]
    warm = []  # (key, is_lookup) accesses that pre-populate the cache
    for _ in range(rng.randint(0, 12)):
        key = rng.choice(names + ["other0", "other1", "other2"])
        warm.append((key, rng.random() < 0.5))
    return capacity, outcomes, warm


def _prepared_cache(capacity: int, warm) -> CodeCache:
    cache = CodeCache(capacity)
    for key, is_lookup in warm:
        if is_lookup:
            cache.lookup(key)
        else:
            cache.insert(key, key)
    return cache


def test_bulk_rounds_match_per_invocation_oracle():
    vm = VirtualMachine(VMConfig())
    for seed in range(600):
        capacity, outcomes, warm = _random_case(random.Random(seed))
        expected = [dataclasses.replace(o) for o in outcomes]
        oracle_cache = _prepared_cache(capacity, warm)
        _oracle_count(oracle_cache, expected)

        vm.code_cache = _prepared_cache(capacity, warm)
        vm._count_translations(outcomes)

        assert ([o.translations_performed for o in outcomes]
                == [o.translations_performed for o in expected]), seed
        assert dataclasses.asdict(vm.code_cache.stats) == \
            dataclasses.asdict(oracle_cache.stats), seed
        assert vm.code_cache.keys() == oracle_cache.keys(), seed


# -- Operation.copy -------------------------------------------------------------

def _sample_op() -> Operation:
    inner = Operation(7, Opcode.ADD, [Reg("t")], [Reg("a"), Imm(1)])
    return Operation(3, Opcode.CCA_OP, dests=[Reg("x"), Reg("y")],
                     srcs=[Reg("a"), Imm(2.5)], predicate=Reg("p"),
                     inner=[inner], stream_id=4, comment="note")


def test_operation_copy_equals_replace_based_copy():
    op = _sample_op()
    copied = op.copy()
    reference = dataclasses.replace(op)
    for f in dataclasses.fields(Operation):
        assert getattr(copied, f.name) == getattr(reference, f.name)
    assert type(copied) is Operation and copied is not op
    for name in ("dests", "srcs", "inner"):
        assert getattr(copied, name) is not getattr(op, name)
    copied.dests.append(Reg("z"))
    copied.srcs.clear()
    copied.inner.append(op)
    assert op.dests == [Reg("x"), Reg("y")]
    assert op.srcs == [Reg("a"), Imm(2.5)]
    assert len(op.inner) == 1


def test_operation_copy_with_changes_still_validates_fields():
    op = _sample_op()
    changed = op.copy(opid=9)
    assert changed.opid == 9 and changed.dests == op.dests
    assert changed.dests is not op.dests
    with pytest.raises(TypeError):
        op.copy(no_such_field=1)


# -- per-loop memos ---------------------------------------------------------------

def test_projection_memo_gives_drifted_latencies_its_own_entry():
    loop = K.iir_biquad()
    drifted = TranslationOptions(latency_model=DRIFTED_LATENCIES)
    plain = translator._schedule_projection(loop, PROPOSED_LA,
                                            TranslationOptions())
    shifted = translator._schedule_projection(loop, PROPOSED_LA, drifted)
    assert len(loop_memo(loop).demand) == 2
    fresh = K.iir_biquad()
    assert translator._count_demand(fresh, DRIFTED_LATENCIES) == \
        loop_memo(loop).demand[tuple(DRIFTED_LATENCIES.overrides.items())]
    assert shifted[1] > plain[1]  # the drifted latencies raise the bound
    assert translator._schedule_projection(loop, PROPOSED_LA, drifted) == \
        shifted


def test_pickled_loop_carries_no_memo():
    loop = K.fir_filter(taps=4)
    assert translate_loop(loop, PROPOSED_LA).ok
    assert "_veal_memo" in loop.__dict__
    clone = pickle.loads(pickle.dumps(loop))
    assert not [k for k in clone.__dict__ if k.startswith("_veal_")]
    assert loop_digest(clone) == loop_digest(loop)


def _direct_keys(loop, config, options) -> set:
    """The keys, derived without any memo (the pre-memo formula)."""
    fresh = loop.rebuild()
    core, ii_bound = translator._schedule_projection(fresh, config, options)
    digest, opts = loop_digest(fresh), options_digest(options)
    keys = {digest_of("core", digest, core, opts)}
    if core.max_ii != ii_bound:
        keys.add(digest_of("core", digest, core.with_(max_ii=ii_bound),
                           opts))
    if core.max_ii != config.max_ii:
        keys.add(digest_of("core", digest,
                           core.with_(max_ii=config.max_ii), opts))
    return keys


@pytest.mark.parametrize("config", [
    PROPOSED_LA,                      # max II below the bound: canon alias
    PROPOSED_LA.with_(max_ii=4096),   # above the bound: exact alias
    INFINITE_LA,
])
def test_memoised_keys_agree_with_lookup_and_invalidation(config):
    loop = K.dct_butterfly()
    options = TranslationOptions()
    translate_loop(loop, config, options)
    keys = translator._core_keys(loop, config, options)
    cache = perf.translation_cache()
    assert translation_key(loop, config, options) == keys.key
    assert cache.peek(keys.key) is not None
    stored = {k for k in (keys.key, keys.canon, keys.exact) if k is not None}
    assert stored == _direct_keys(loop, config, options)
    assert invalidate_translation(loop, config, options)
    assert all(cache.peek(k) is None for k in stored)


@pytest.mark.parametrize("field,value,twin", [
    ("max_ii", 16, 16.0),
    ("num_int_units", 2, 2.0),
    ("num_ccas", 0.0, -0.0),
])
def test_key_memo_never_merges_configs_the_digest_separates(field, value,
                                                           twin):
    loop = K.dct_butterfly()
    first = PROPOSED_LA.with_(**{field: value})
    second = PROPOSED_LA.with_(**{field: twin})
    assert first == second  # dataclass equality cannot tell them apart
    options = TranslationOptions()
    direct = [_direct_keys(loop, config, options)
              for config in (first, second)]
    assert direct[0] != direct[1]  # ... but the digest does
    memoised = [translation_key(loop, config, options)
                for config in (first, second)]
    assert memoised[0] in direct[0] and memoised[1] in direct[1]
    assert memoised[0] != memoised[1]
    assert len(loop_memo(loop).core_keys) == 2


# -- the warm pass does no per-loop recomputation ---------------------------------

def test_second_fig4b_pass_does_no_hit_path_recomputation(monkeypatch):
    from repro import api
    from repro.vm import runtime

    copies_in_linear_program = 0
    inside = False
    real_copy = Operation.copy
    real_linear_program = runtime.linear_program

    def counting_copy(self, **changes):
        nonlocal copies_in_linear_program
        copies_in_linear_program += inside
        return real_copy(self, **changes)

    def linear_program(*args, **kwargs):
        nonlocal inside
        inside = True
        try:
            return real_linear_program(*args, **kwargs)
        finally:
            inside = False

    walked = []  # (loop, latency key); loops kept alive so ids stay unique
    real_count = translator._count_demand

    def count_demand(loop, lat):
        walked.append((loop, tuple(lat.overrides.items())))
        return real_count(loop, lat)

    monkeypatch.setattr(Operation, "copy", counting_copy)
    monkeypatch.setattr(runtime, "linear_program", linear_program)
    monkeypatch.setattr(translator, "_count_demand", count_demand)

    api.run_figure("fig4b")
    cold_walks = len(walked)
    stats = perf.translation_cache().stats
    before = (stats.hits, stats.misses, stats.stores)
    obs.reset_metrics()
    copies_in_linear_program = 0

    api.run_figure("fig4b")

    counters = obs.metrics_snapshot().get("counters", {})
    assert counters.get("translator.core_runs", 0) == 0
    assert copies_in_linear_program == 0
    seen = {}
    for loop, lat_key in walked:
        seen[(id(loop), lat_key)] = seen.get((id(loop), lat_key), 0) + 1
    assert set(seen.values()) == {1}, "a loop's body was walked twice"
    assert cold_walks > 0
    # The same cache traffic as a warm pass of the unmemoised code.
    assert (stats.hits - before[0], stats.misses - before[1],
            stats.stores - before[2]) == (504, 0, 0)
