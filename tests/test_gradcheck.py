import multiprocessing

import numpy as np
import pytest

from segrl import gradcheck
from segrl.batch import advantage_arrays
from segrl.gradcheck import gradcheck_report, random_case
from segrl.training import loss_plan, total_loss

from conftest import cpus


class TestLossPlan:
    """The plan's parts, added by its one expression, are `total_loss`."""

    H = 1e-5

    @pytest.mark.parametrize("seed", range(4))
    def test_value_equals_total_loss_at_every_bump(self, seed):
        case = random_case(np.random.Generator(np.random.PCG64(seed)))
        adv = advantage_arrays(case.table, case.tables, case.cfg.gae())
        frozen = case.tables.copy()
        plan = loss_plan(case.params, case.ref, case.tables, case.table, adv, case.cfg)
        layout = plan.sites.layout

        def both():
            full, _, _ = total_loss(case.params, case.ref, case.tables, case.table,
                                    adv, case.cfg, target_tables=frozen)
            surrogate, _, kl, _ = plan.actor(layout.slab(case.params.theta), grad=False)
            return full, plan.value(surrogate, kl,
                                    *plan.critic.mse_and_grad(case.tables, frozen)[:2])

        full, planned = both()
        assert planned == full
        outside = 0
        for x in (case.params.theta, case.tables.v_high, case.tables.v_low.reshape(-1)):
            for i in range(x.size):
                orig = x[i]
                for bumped in (orig + self.H, orig - self.H):
                    x[i] = bumped
                    now, planned = both()
                    assert planned == now, (i, bumped)
                    if x is case.params.theta and i not in layout.cells:
                        # a logit outside the slab leaves the loss as it was
                        assert now == full
                        outside += 1
                x[i] = orig
        assert outside > 0


class TestReport:
    # pinned before the checks were pooled: the draws keep their order
    @pytest.mark.parametrize("n,seed,err,worst", [(10, 0, 2.741591120791753e-10, 1),
                                                  (100, 42, 5.294698360303052e-10, 61)])
    def test_pinned(self, n, seed, err, worst):
        assert gradcheck_report(n, seed) == {
            "configs": n, "max_rel_err": err, "tol": 1e-6, "worst_config": worst,
            "worst_kind": "loss"}

    def test_pooled_equals_one_process(self, monkeypatch):
        reports = []
        for n in (1, 2):
            cpus(monkeypatch, n)
            reports.append(gradcheck_report(12, 700))
            assert multiprocessing.active_children() == []
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_nan_error_fails_and_is_named(self, monkeypatch, n):
        cpus(monkeypatch, n)
        drawn, draw, check = [], gradcheck.random_case, gradcheck.check_total_loss_grads
        monkeypatch.setattr(gradcheck, "random_case",
                            lambda rng: drawn.append(draw(rng)) or drawn[-1])
        # configuration 3, the second full-loss check, errs by NaN
        monkeypatch.setattr(gradcheck, "check_total_loss_grads",
                            lambda case, h: np.nan if case is drawn[1] else check(case, h))
        rep = gradcheck_report(6, 0)
        assert len(drawn) == 3 and np.isnan(rep["max_rel_err"])
        assert (rep["worst_config"], rep["worst_kind"]) == (3, "loss")
        assert not rep["max_rel_err"] <= rep["tol"]

    @pytest.mark.parametrize("n", [0, -2])
    def test_no_configurations_refused(self, monkeypatch, n):
        monkeypatch.setattr(gradcheck, "random_case", None)   # nothing is drawn
        with pytest.raises(ValueError, match="^n_configs must be >= 1"):
            gradcheck_report(n, 0)
