import multiprocessing

import numpy as np
import pytest

from segrl import gradcheck
from segrl.batch import advantage_arrays, gather_rows, head_sites
from segrl.gradcheck import (check_total_loss_grads, fd_params_grad, gradcheck_report,
                             random_case, rel_err)

import spec
from conftest import cpus


class TestFullLossCheck:
    """The check's shortcut, bumping one part of the loss and keeping the
    other's value, gives what differences of the whole loss give."""

    H = 1e-5

    @pytest.mark.parametrize("seed", range(4))
    def test_check_equals_differences_of_the_full_loss(self, seed):
        case = random_case(np.random.Generator(np.random.PCG64(seed)))
        adv = advantage_arrays(case.table, case.tables, case.cfg)
        frozen = case.tables.copy()

        def loss(params=case.params):
            return spec.total_loss(params, case.ref, case.tables, case.table, adv,
                                   case.cfg, case.c_v, target_tables=frozen)

        full, g_theta, g_tab = loss()
        numeric = fd_params_grad(lambda p: loss(p)[0], case.params, self.H)
        errs = [rel_err(g_theta.theta, numeric.theta)]
        for got, arr in ((g_tab.v_high, case.tables.v_high),
                         (g_tab.v_low, case.tables.v_low)):
            errs.append(rel_err(got, gradcheck._central_differences(
                lambda: loss()[0], arr.reshape(-1), self.H).reshape(arr.shape)))
        assert check_total_loss_grads(case, self.H) == float(np.max(errs))

        # a logit outside the batch's cells leaves the loss as it was
        cells = head_sites(gather_rows(case.table, adv), case.params).cells
        theta, outside = case.params.theta, 0
        for i in np.setdiff1d(np.arange(theta.size), cells):
            orig = theta[i]
            for bumped in (orig + self.H, orig - self.H):
                theta[i] = bumped
                assert loss()[0] == full, (i, bumped)
            theta[i] = orig
            outside += 1
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
