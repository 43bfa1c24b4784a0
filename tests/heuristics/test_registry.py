"""Unit tests for the policy registry and the SchedulingPolicy protocol."""

from __future__ import annotations

from typing import Optional

import pytest

from repro.core import Instance, Job
from repro.heuristics import (
    OFFLINE_OPTIMAL,
    OnlinePolicy,
    OnlineScheduler,
    PolicyParam,
    PolicySpec,
    SchedulingPolicy,
    available_policies,
    available_schedulers,
    make_policy,
    make_scheduler,
    policy_spec,
    register_online_scheduler,
    register_policy,
    resolve_policies,
    resolve_policy_variant,
    unregister_policy,
)
from repro.simulation import AllocationDecision


@pytest.fixture
def tiny():
    jobs = [Job("A", 0.0, weight=1.0), Job("B", 1.0, weight=2.0)]
    costs = [[2.0, 3.0], [4.0, 6.0]]
    return Instance.from_costs(jobs, costs)


class _EagerScheduler(OnlineScheduler):
    """Test double: every active job exclusively on its cheapest free machine."""

    name = "eager-test"

    def decide(self, state):
        shares = {}
        used = set()
        for job_index in state.active_jobs():
            for machine_index in range(state.instance.num_machines):
                if machine_index not in used:
                    shares[machine_index] = [(job_index, 1.0)]
                    used.add(machine_index)
                    break
        return AllocationDecision(shares=shares)


class TestBuiltinRegistry:
    def test_online_and_offline_policies_are_registered(self):
        assert set(available_schedulers()) <= set(available_policies())
        assert OFFLINE_OPTIMAL in available_policies()
        assert OFFLINE_OPTIMAL in available_policies(kind="offline")
        assert OFFLINE_OPTIMAL not in available_policies(kind="online")
        assert available_schedulers() == available_policies(kind="online")

    def test_make_scheduler_still_returns_raw_schedulers(self):
        scheduler = make_scheduler("mct")
        assert hasattr(scheduler, "decide")
        assert scheduler.name == "mct"

    def test_make_scheduler_rejects_offline_policies(self):
        with pytest.raises(KeyError, match="off-line"):
            make_scheduler(OFFLINE_OPTIMAL)

    def test_unknown_names_raise_with_the_available_list(self):
        with pytest.raises(KeyError, match="available"):
            make_policy("no-such-policy")
        with pytest.raises(KeyError, match="available"):
            make_scheduler("no-such-policy")

    def test_policy_spec_metadata(self):
        spec = policy_spec("mct")
        assert spec.kind == "online"
        assert spec.scheduler_factory is not None
        assert policy_spec(OFFLINE_OPTIMAL).scheduler_factory is None


class TestProtocol:
    def test_every_registered_policy_runs_through_one_path(self, tiny):
        for name in available_policies():
            policy = make_policy(name)
            assert isinstance(policy, SchedulingPolicy)
            outcome = policy.run(tiny)
            outcome.schedule.validate()
            assert outcome.policy == name
            assert outcome.max_weighted_flow > 0

    def test_offline_outcome_reports_the_exact_objective(self, tiny):
        outcome = make_policy(OFFLINE_OPTIMAL).run(tiny)
        assert outcome.kind == "offline"
        assert outcome.objective is not None
        assert outcome.max_weighted_flow == pytest.approx(outcome.objective, rel=1e-5)
        assert outcome.simulation is None

    def test_online_outcome_carries_the_simulation(self, tiny):
        outcome = make_policy("fifo").run(tiny)
        assert outcome.kind == "online"
        assert outcome.objective is None
        assert outcome.simulation is not None


class TestCustomRegistration:
    def test_register_and_resolve_a_custom_scheduler(self, tiny):
        register_online_scheduler(
            "eager-test", _EagerScheduler, description="test double"
        )
        try:
            assert "eager-test" in available_schedulers()
            scheduler = make_scheduler("eager-test")
            assert isinstance(scheduler, _EagerScheduler)
            outcome = make_policy("eager-test").run(tiny)
            outcome.schedule.validate()
        finally:
            unregister_policy("eager-test")
        assert "eager-test" not in available_policies()

    def test_duplicate_names_are_rejected_without_replace(self):
        register_online_scheduler("dup-test", _EagerScheduler)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_online_scheduler("dup-test", _EagerScheduler)
            register_online_scheduler("dup-test", _EagerScheduler, replace=True)
        finally:
            unregister_policy("dup-test")

    def test_invalid_kind_is_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            register_policy(
                PolicySpec(name="bad-kind", kind="sideways", factory=lambda: None)
            )

    def test_custom_policy_flows_through_a_campaign(self, tiny):
        from repro.analysis import run_policy_campaign

        register_online_scheduler("eager-test", _EagerScheduler)
        try:
            result = run_policy_campaign([tiny], policies=("eager-test", "mct"))
            assert {record.policy for record in result.records} == {
                OFFLINE_OPTIMAL,
                "eager-test",
                "mct",
            }
        finally:
            unregister_policy("eager-test")

    def test_online_policy_adapter_wraps_any_scheduler(self, tiny):
        policy = OnlinePolicy(_EagerScheduler())
        assert policy.name == "eager-test"
        outcome = policy.run(tiny)
        assert outcome.policy == "eager-test"
        outcome.schedule.validate()


class TestPolicyVariants:
    def test_bare_names_resolve_with_empty_params(self):
        variant = resolve_policy_variant("mct")
        assert variant.base == "mct"
        assert variant.params == {}
        assert variant.label == "mct"
        assert not variant.is_variant

    def test_variant_tokens_coerce_and_canonicalise(self):
        variant = resolve_policy_variant("online-offline:period=2,preemptive=yes")
        assert variant.base == "online-offline"
        assert variant.params == {"period": 2.0, "preemptive": True}
        assert variant.label == "online-offline:period=2.0,preemptive=true"

    def test_explicit_defaults_collapse_to_the_bare_name(self):
        variant = resolve_policy_variant("online-offline:backend=scipy,parametric=1")
        assert variant.params == {}
        assert variant.label == "online-offline"

    def test_params_argument_overrides_inline_token(self):
        variant = resolve_policy_variant("online-offline:period=2", {"period": 5.0})
        assert variant.params == {"period": 5.0}

    def test_unknown_parameter_is_rejected_with_the_schema_list(self):
        with pytest.raises(KeyError, match="sweepable"):
            resolve_policy_variant("online-offline:warp=9")

    def test_bad_value_is_rejected(self):
        with pytest.raises(ValueError, match="expects float"):
            resolve_policy_variant("online-offline:period=fast")
        with pytest.raises(ValueError, match="boolean"):
            resolve_policy_variant("online-offline:preemptive=maybe")

    def test_make_policy_builds_a_labelled_variant(self, tiny):
        policy = make_policy("online-offline:period=2.0")
        assert policy.name == "online-offline:period=2.0"
        assert policy.scheduler.period == 2.0
        outcome = policy.run(tiny)
        assert outcome.policy == "online-offline:period=2.0"
        outcome.schedule.validate()

    def test_make_scheduler_accepts_variant_tokens(self):
        scheduler = make_scheduler("deadline-driven:backend=revised,lp_targets=true")
        assert scheduler.name == "deadline-driven:backend=revised,lp_targets=true"
        assert scheduler.backend == "revised"
        assert scheduler.lp_targets is True

    def test_offline_variant_resolves_through_make_policy(self, tiny):
        policy = make_policy("offline-optimal:preemptive=true")
        assert policy.name == "offline-optimal:preemptive=true"
        assert policy.preemptive is True
        outcome = policy.run(tiny)
        outcome.schedule.validate()

    def test_param_coercion_rules(self):
        param = PolicyParam("p", bool, False)
        assert param.coerce("true") is True
        assert param.coerce("0") is False
        count = PolicyParam("n", int, 1)
        assert count.coerce("7") == 7
        with pytest.raises(ValueError):
            count.coerce(2.5)

    def test_non_string_values_are_type_checked(self):
        flag = PolicyParam("p", bool, False)
        assert flag.coerce(True) is True
        with pytest.raises(ValueError, match="expects a boolean"):
            flag.coerce(1)
        with pytest.raises(ValueError, match="expects a boolean"):
            flag.coerce("maybe")
        count = PolicyParam("n", int, 1)
        assert count.coerce(3) == 3
        with pytest.raises(ValueError, match="expects an integer"):
            count.coerce(True)
        with pytest.raises(ValueError, match="expects int"):
            count.coerce("seven")
        label = PolicyParam("s", str, "a")
        with pytest.raises(ValueError, match="expects str"):
            label.coerce(3)

    def test_float_params_widen_integers(self):
        precision = PolicyParam("precision", float, 1e-3)
        value = precision.coerce(1)
        assert value == 1.0 and isinstance(value, float)
        with pytest.raises(ValueError, match="expects float"):
            precision.coerce(True)

    def test_token_parameters_skip_blanks_and_need_key_value_pairs(self):
        variant = resolve_policy_variant("online-offline: period=0.5 ,,")
        assert variant.label == "online-offline:period=0.5"
        with pytest.raises(ValueError, match="expected key=value"):
            resolve_policy_variant("online-offline:period")

    def test_none_is_only_legal_when_the_default_is_none(self):
        optional = PolicyParam("period", float, None)
        assert optional.coerce(None) is None
        required = PolicyParam("precision", float, 1e-3)
        with pytest.raises(ValueError, match="got None"):
            required.coerce(None)
        with pytest.raises(ValueError, match="got None"):
            resolve_policy_variant("online-offline", {"preemptive": None})




class _KnobbedScheduler(_EagerScheduler):
    """Test double whose constructor keywords are its sweepable parameters."""

    name = "knobbed-test"

    def __init__(
        self,
        size,
        *,
        horizon: Optional[float] = None,
        greedy: bool = False,
        rounds: int = 3,
        mode: str = "fast",
    ) -> None:
        self.size = size
        self.horizon = horizon
        self.greedy = greedy
        self.rounds = rounds
        self.mode = mode


class TestDerivedSchema:
    @pytest.fixture
    def knobbed(self):
        spec = register_online_scheduler("knobbed-test", _KnobbedScheduler)
        yield spec
        unregister_policy("knobbed-test")

    def test_keywords_with_defaults_become_typed_params(self, knobbed):
        assert [(p.name, p.type, p.default) for p in knobbed.params] == [
            ("horizon", float, None),
            ("greedy", bool, False),
            ("rounds", int, 3),
            ("mode", str, "fast"),
        ]

    def test_parameters_without_a_default_are_not_sweepable(self, knobbed):
        assert "size" not in {param.name for param in knobbed.params}
        with pytest.raises(KeyError, match="sweepable: greedy, horizon, mode, rounds"):
            resolve_policy_variant("knobbed-test:size=4")

    def test_derived_params_coerce_every_type(self, knobbed):
        variant = resolve_policy_variant(
            "knobbed-test:horizon=2,greedy=on,rounds=5,mode=slow"
        )
        assert variant.params == {
            "horizon": 2.0, "greedy": True, "rounds": 5, "mode": "slow"
        }
        with pytest.raises(ValueError, match="expects int"):
            resolve_policy_variant("knobbed-test:rounds=2.5")

    def test_unannotated_keywords_are_rejected_at_registration(self):
        class _Unannotated(_EagerScheduler):
            def __init__(self, horizon=1.0) -> None:
                self.horizon = horizon

        with pytest.raises(TypeError, match="annotation"):
            register_online_scheduler("unannotated-test", _Unannotated)
        assert "unannotated-test" not in available_policies()

    def test_builtin_knob_surface_is_pinned(self):
        # A new constructor keyword is a new sweepable option (and a new
        # store cell axis): this pin makes adding one a deliberate change.
        surface = {
            name: sorted(param.name for param in policy_spec(name).params)
            for name in available_policies()
            if policy_spec(name).params
        }
        assert surface == {
            "deadline-driven": ["backend", "lp_targets"],
            "offline-optimal": ["preemptive"],
            "online-offline": ["backend", "parametric", "period", "preemptive"],
        }


class TestResolvePolicies:
    def test_returns_the_canonical_variants_in_order(self):
        variants = resolve_policies(["mct", "online-offline:period=2"])
        assert [variant.label for variant in variants] == [
            "mct",
            "online-offline:period=2.0",
        ]

    @pytest.mark.parametrize(
        "token",
        [
            "online-offline:period=-1",
            "online-offline:backend=highs",
            "online-offline:backend=highs,parametric=false",
            "deadline-driven:backend=highs",
        ],
    )
    def test_constructor_rejections_surface_before_any_run(self, token):
        with pytest.raises(ValueError):
            resolve_policies(["mct", token])
