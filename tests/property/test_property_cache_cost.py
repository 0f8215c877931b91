"""Property-based tests (hypothesis): factor-cache keying and work costing.

Two invariant families the compiled-tier PR leans on:

* **factor-cache keys** are namespaced by the registered engine name (two
  engines sharing one executor can never collide) and survive a spec
  serialisation round trip (a respawned worker reproduces the same keys and
  the same ``run_key``);
* :func:`~repro.campaign.workitem.estimate_cost` is strictly monotone in
  every work-multiplying spec axis (and cubic in nodes-per-element), and
  :func:`~repro.campaign.workitem.order_by_cost` is a permutation sorted by
  descending cost.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.workitem import WorkItem, estimate_cost, order_by_cost, run_key
from repro.config import ProblemSpec
from repro.core.factor_cache import FactorCache
from repro.engines import available_engines, get_engine

# ------------------------------------------------------------------ strategies
spec_axes = dict(
    n=st.integers(min_value=1, max_value=6),
    angles_per_octant=st.integers(min_value=1, max_value=3),
    num_groups=st.integers(min_value=1, max_value=8),
    num_inners=st.integers(min_value=1, max_value=10),
    num_outers=st.integers(min_value=1, max_value=5),
    order=st.integers(min_value=1, max_value=3),
)


def _spec(n, angles_per_octant, num_groups, num_inners, num_outers, order) -> ProblemSpec:
    return ProblemSpec(
        nx=n, ny=n, nz=n,
        angles_per_octant=angles_per_octant,
        num_groups=num_groups,
        num_inners=num_inners,
        num_outers=num_outers,
        order=order,
    )


# ------------------------------------------------------------- cache keying
class TestFactorCacheKeying:
    def test_registered_engines_namespace_their_keys(self):
        """Every caching engine keys by its own registry name, so one shared
        executor cache can never serve engine A's factors to engine B."""
        engines = [get_engine(name) for name in available_engines()]
        for engine in engines:
            assert engine.name  # registry sets it
        names = [engine.name for engine in engines]
        assert len(set(names)) == len(names)

    @settings(max_examples=25, deadline=None)
    @given(**spec_axes, angle=st.integers(min_value=0, max_value=63))
    def test_keys_stable_under_spec_round_trip(self, angle, **axes):
        """The (engine, angle) key and the campaign run_key derived from a
        round-tripped spec are identical to the originals."""
        spec = _spec(**axes)
        reloaded = ProblemSpec.from_dict(spec.to_dict())
        assert reloaded == spec
        assert run_key(reloaded) == run_key(spec)
        for engine_name in available_engines():
            key = (engine_name, angle)
            rekey = (engine_name, angle)
            cache = FactorCache()
            cache[key] = {"token": None}
            assert rekey in cache

    @settings(max_examples=25, deadline=None)
    @given(angle=st.integers(min_value=0, max_value=15))
    def test_distinct_engine_namespaces_never_collide(self, angle):
        cache = FactorCache()
        for engine_name in available_engines():
            cache[(engine_name, angle)] = {"owner": engine_name}
        assert len(cache) == len(available_engines())
        for engine_name in available_engines():
            assert cache[(engine_name, angle)]["owner"] == engine_name


# ------------------------------------------------------------- cost estimate
class TestEstimateCost:
    @settings(max_examples=40, deadline=None)
    @given(**spec_axes)
    def test_monotone_in_every_work_axis(self, **axes):
        spec = _spec(**axes)
        base = estimate_cost(spec)
        assert base > 0
        grown = {
            "nx": spec.with_(nx=spec.nx + 1),
            "angles": spec.with_(angles_per_octant=spec.angles_per_octant + 1),
            "groups": spec.with_(num_groups=spec.num_groups + 1),
            "inners": spec.with_(num_inners=spec.num_inners + 1),
            "outers": spec.with_(num_outers=spec.num_outers + 1),
        }
        for axis, bigger in grown.items():
            assert estimate_cost(bigger) > base, axis

    @settings(max_examples=20, deadline=None)
    @given(**spec_axes)
    def test_cubic_in_nodes_per_element(self, **axes):
        spec = _spec(**axes)
        raised = spec.with_(order=spec.order + 1)
        ratio = estimate_cost(raised) / estimate_cost(spec)
        node_ratio = raised.nodes_per_element / spec.nodes_per_element
        assert ratio == pytest.approx(node_ratio**3, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(*(spec_axes[k] for k in sorted(spec_axes))),
                    min_size=0, max_size=12))
    def test_order_by_cost_is_a_descending_permutation(self, rows):
        items = [
            WorkItem(spec=_spec(**dict(zip(sorted(spec_axes), row))), index=i)
            for i, row in enumerate(rows)
        ]
        ordered = order_by_cost(items)
        assert sorted(item.index for item in ordered) == list(range(len(items)))
        costs = [item.cost for item in ordered]
        assert costs == sorted(costs, reverse=True)
        # Ties broken by index: deterministic whatever the input order.
        assert order_by_cost(list(reversed(items))) == ordered
