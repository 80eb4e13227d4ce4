"""Two-head value baselines and their coupled bootstrapped regression targets.

The high head values states at switch decision points; the low head values
(state, subgoal) pairs during subgoal commitment.  The two heads are coupled:
the final turn of every segment bootstraps to the high-head value at the next
boundary, so low-level estimates stay consistent with boundary-to-boundary
progress.  Fitting is full-batch tabular regression: every visited cell takes
a gradient step on the mean squared error of its own visits, with targets
recomputed from the updated tables each epoch (fitted value iteration).

A row's target minus the value of its cell is its TD residual; both
advantage kernels read their residuals off rows through `row_targets`, so
each target is written once.

The flat baseline is the same regression without options: a batch with
`n_options = 0` over v_flat, held as the high head of ValueTables with an
(S, 0) low table, one row per turn toward its observed return-to-go and no
coupling.  Monte-Carlo targets match the definition of the flat baseline
(the state-conditional expected return): under the hierarchical policy the
state alone is not Markov, so a bootstrapped flat fixed point would
systematically miss that conditional mean.  `fit_critic` fits both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ValueTables:
    """v_high[s] and v_low[s, o].  Terminal states are never written and
    stay at zero, matching the terminal-bootstrap rule."""

    v_high: np.ndarray
    v_low: np.ndarray

    def __post_init__(self):
        self.v_high = np.asarray(self.v_high, dtype=np.float64)
        self.v_low = np.asarray(self.v_low, dtype=np.float64)
        if self.v_low.ndim != 2 or self.v_high.shape != (self.v_low.shape[0],):
            raise ValueError("v_high must be (S,) and v_low (S, O)")

    @property
    def n_states(self) -> int:
        return self.v_high.shape[0]

    @property
    def n_options(self) -> int:
        return self.v_low.shape[1]

    @classmethod
    def zeros(cls, n_states: int, n_options: int) -> "ValueTables":
        return cls(np.zeros(n_states), np.zeros((n_states, n_options)))

    def copy(self) -> "ValueTables":
        return ValueTables(self.v_high.copy(), self.v_low.copy())


# ---------------------------------------------------------------------------
# Regression rows
#
# Both heads live in one stacked index space, [v_high, v_low.ravel()]: the
# high cell of state s is s and the low cell of (s, o) is S + s*O + o.  A
# batch is a list of weighted rows, each regressing one cell toward a
# reward plus zero or more discounted table lookups (its couplings), so
# every target is affine in the tables and costs one gather per epoch.
# ---------------------------------------------------------------------------

@dataclass
class CriticBatch:
    """The bootstrapped regression problem of both heads, as rows.

    `rows` holds per-row arrays `cell`, `w`, `r` and per-coupling arrays
    `row`, `boot`, `coef`; `cell` and `boot` index the stacked tables
    [v_high, v_low.ravel()].  Row j targets
        y_j = r_j + sum over couplings k of row j: coef_k * v[boot_k],
    a terminal row has no coupling, and each cell's mean target is the
    w-weighted mean of its rows' targets.  Sampled batches hold one row per
    turn (low head, coef gamma) and per segment (high head, coef the
    duration discount); exact batches hold one row per visited cell; flat
    batches (`n_options = 0`) one uncoupled row per turn.
    """

    n_states: int
    n_options: int
    rows: dict = field(repr=False)
    w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # per-cell weight over the stacked tables; zero marks unvisited cells
        self.w = np.bincount(self.rows["cell"], weights=self.rows["w"],
                             minlength=self.n_states * (1 + self.n_options))

    @classmethod
    def from_rows(cls, rows: dict, n_states: int, n_options: int) -> "CriticBatch":
        return cls(n_states, n_options, rows)

    # -- target evaluation ---------------------------------------------------

    def row_targets(self, tables: ValueTables) -> np.ndarray:
        """y per row: its reward plus its discounted bootstrap lookups."""
        return row_targets(self.rows, stacked(tables))

    def head_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row: whether it is a high-head row, and its weight over its
        head's total weight (0 in a head of no weight)."""
        high = self.rows["cell"] < self.n_states
        head_w = np.where(high, self.w[:self.n_states].sum(),
                          self.w[self.n_states:].sum())
        return high, np.divide(self.rows["w"], head_w, out=np.zeros_like(head_w),
                               where=head_w > 0)

    def mse_and_grad(self, tables: ValueTables,
                     target_tables: ValueTables | None = None
                     ) -> tuple[float, float, np.ndarray]:
        """Weighted MSE of the low and high head rows, and the gradient of
        their sum wrt the stacked tables with the targets held constant.

        Predictions come from `tables`; bootstrap targets from
        `target_tables` (default: the same tables).
        """
        r = self.rows
        tgt = tables if target_tables is None else target_tables
        err = stacked(tables)[r["cell"]] - self.row_targets(tgt)
        high, wn = self.head_weights()
        sq = wn * err * err
        grad = np.bincount(r["cell"], weights=2.0 * wn * err,
                           minlength=self.w.size)
        return float(sq[~high].sum()), float(sq[high].sum()), grad


def row_targets(rows: dict, v: np.ndarray) -> np.ndarray:
    """y per row of `rows` (see CriticBatch), with lookups into the stacked
    tables `v`."""
    return rows["r"] + np.bincount(rows["row"], weights=rows["coef"] * v[rows["boot"]],
                                   minlength=rows["r"].size)


def stacked(tables: ValueTables) -> np.ndarray:
    """The tables as one vector [v_high, v_low.ravel()]."""
    return np.concatenate([tables.v_high, tables.v_low.ravel()])


def unstacked(v: np.ndarray, n_states: int) -> ValueTables:
    """Inverse of `stacked`."""
    return ValueTables(v[:n_states], v[n_states:].reshape(n_states, -1))


def low_cell(state, subgoal, n_states: int, n_options: int):
    """Stacked index of v_low[state, subgoal] (scalars or arrays)."""
    return n_states + state * n_options + subgoal


def single_coupling_rows(cell, w, r, boot, coef) -> dict:
    """Rows coupled to at most one table entry; boot < 0 marks a terminal
    row, which has none."""
    live = boot >= 0
    return {"cell": cell, "w": w, "r": r, "row": np.flatnonzero(live),
            "boot": boot[live], "coef": coef[live]}


@dataclass
class CriticFitReport:
    mse_low: list[float]
    mse_high: list[float]

    @property
    def final_mse(self) -> float:
        return (self.mse_low[-1] if self.mse_low else 0.0) + \
               (self.mse_high[-1] if self.mse_high else 0.0)


def fit_critic(tables: ValueTables, batch: CriticBatch, lr: float,
               epochs: int) -> tuple[ValueTables, CriticFitReport]:
    """Regress both heads toward their bootstrapped targets.

    The targets are recomputed from the updated tables at the start of
    every epoch (fitted value iteration, converging to the bootstrapped
    fixed point) and are constants within it.  Each visited cell moves by
    v <- v - 2*lr*(v - mean target), which shrinks its error against the
    epoch's targets for 0 < lr < 1; unvisited cells are untouched.  At
    lr = 0 every cell with a finite target keeps its value, and the report
    holds the tables' MSE, `epochs` times over.
    """
    if not lr >= 0:
        raise ValueError(f"lr must be >= 0, got {lr}")
    v = stacked(tables)
    if v.size != batch.w.size:
        raise ValueError(f"the tables hold {v.size} cells, the batch {batch.w.size}")
    out = unstacked(v, tables.n_states)    # views: they follow updates of v
    r = batch.rows
    high, wn = batch.head_weights()
    low = ~high
    vis = np.flatnonzero(batch.w > 0)
    w_vis = batch.w[vis]
    report = CriticFitReport([], [])
    for _ in range(epochs):
        # one target pass: the epoch's per-head MSE (`mse_and_grad`'s) and
        # each visited cell's w-weighted mean target
        y = row_targets(r, v)
        err = v[r["cell"]] - y
        sq = wn * err * err
        report.mse_low.append(float(sq[low].sum()))
        report.mse_high.append(float(sq[high].sum()))
        num = np.bincount(r["cell"], weights=r["w"] * y, minlength=v.size)
        x = v[vis]
        v[vis] = x - 2.0 * lr * (x - num[vis] / w_vis)
    return out, report
