"""The engine-contract suite: every registered engine, every clause.

Parametrised directly over ``available_engines()`` so the optional
``compiled`` tier (and any plugin engine registered before collection) is
subjected to the identical contract as the built-ins -- no per-engine
special-casing anywhere.  The clauses themselves live in
:mod:`tests.engines.contract` so plugins can reuse the harness outside
this repository's test run.
"""

from __future__ import annotations

import pytest

from contract import EngineContract

from repro.engines import BatchedSweepEngine, available_engines, get_engine


@pytest.fixture(scope="module", params=sorted(available_engines()))
def contract(request) -> EngineContract:
    return EngineContract(request.param)


class TestEngineContract:
    def test_mms_order(self, contract):
        contract.check_mms_order()

    def test_reference_agreement(self, contract):
        contract.check_reference_agreement()

    def test_boundary_inflow(self, contract):
        contract.check_boundary_inflow()

    def test_leakage_oracle(self, contract):
        contract.check_leakage_oracle()

    def test_update_materials_invalidates(self, contract):
        contract.check_update_materials_invalidates()

    def test_set_engine_invalidates(self, contract):
        contract.check_set_engine_invalidates()

    def test_cache_policy(self, contract):
        contract.check_cache_policy()

    def test_same_class_instances_never_collide(self, contract):
        contract.check_same_class_instances_never_collide()

    def test_serial_and_octant_epilogues_agree(self, contract):
        contract.check_serial_and_octant_epilogues_agree()

    def test_thread_invariance(self, contract):
        contract.check_thread_invariance()

    def test_telemetry_off_identity(self, contract):
        contract.check_telemetry_off_identity()

    def test_budget_bounded(self, contract):
        contract.check_budget_bounded()


def test_vectorized_and_prefactorized_are_two_instances_of_one_class():
    """The fold this suite guards: one loop, the keep-factors choice fixed at
    registration -- so the sibling clause above actually has siblings."""
    vectorized, prefactorized = get_engine("vectorized"), get_engine("prefactorized")
    assert type(vectorized) is type(prefactorized) is BatchedSweepEngine
    assert vectorized is not prefactorized
    assert (vectorized.keep_factors, prefactorized.keep_factors) == (False, True)
