"""Oracle checks on the CSVs a workload wrote, run outside the timed region.

Each CSV names its scenario in its comment line.  The checks run
`twocav evolve` on that scenario to get the program's own states, compare
those with the exact propagator rho(t) = expm(Theta(t) A) rho0, and check
every other quantity against an oracle evaluated on the program's state,
so an identity check tests its own layer and not the integrator.  The
tolerances are those the tests pin.  A mismatch is attributed to a known
defect only when a recomputation that removes that defect's cause makes
the value agree; any other mismatch makes the run incorrect.
"""

import contextlib
import io
import math
import os
import sys
import traceback
import zlib

import numpy as np
from scipy import linalg

TRAJECTORY_TOL = 1e-8
LOG_NEGATIVITY_TOL = 1e-10
CONCURRENCE_TOL = 1e-12
W_ORIGIN_TOL = 1e-10
DISCORD_TOL = 1e-4
FIDELITY_TOL = 1e-10

# Rows sampled per CSV for the checks that need the program's state.
STATE_SAMPLES = 4
TELEPORT_SAMPLES = 8
DISCORD_SAMPLES = 1

# Known defects a mismatch may be attributed to.
DISCORD_UNNORMALISED = "discord_x_on_unnormalised_state"
FIDELITY_P_NONZERO = "closed_form_fidelity_at_p_nonzero"
NOON_DROPS_RHO44 = "closed_form_noon_drops_rho44"
CONCURRENCE_PRECISION = "wootters_concurrence_sqrt_of_zero_eigenvalue"

# Scenario keys read back from a CSV comment line; anything else there
# (such as the sampled point of a wigner CSV) is not a scenario key.  Only
# the dynamics keys decide the trajectory.
_SCENARIO_KEYS = (
    "schema", "state", "a", "d", "b", "c", "nbar_prime", "n1", "m1", "nbar",
    "model", "gamma_m", "omega0", "r", "omega_c", "t_max", "steps", "closure",
    "rho13_strict", "p", "q", "index_order", "extent", "points", "elements",
)
_NON_DYNAMICS_KEYS = ("p", "q", "index_order", "extent", "points", "elements")


class Tally:
    """Values checked and mismatches, per check and per attribution."""

    def __init__(self):
        self.checked = {}
        self.mismatched = {}
        self.attributed = {}
        self.unexplained = []

    def record(self, check, ok, where, defect=None, detail=""):
        self.checked[check] = self.checked.get(check, 0) + 1
        if ok:
            return
        self.mismatched[check] = self.mismatched.get(check, 0) + 1
        if defect is not None:
            self.attributed[defect] = self.attributed.get(defect, 0) + 1
        else:
            self.unexplained.append("%s %s %s" % (check, where, detail))

    def as_dict(self):
        checked = sum(self.checked.values())
        mismatched = sum(self.mismatched.values())
        return {
            "values_checked": checked,
            "values_mismatched": mismatched,
            "mismatch_ratio": mismatched / checked if checked else 0.0,
            "checked_by_check": self.checked,
            "mismatched_by_check": self.mismatched,
            "attributed_by_defect": self.attributed,
            "unexplained": self.unexplained[:20],
            "unexplained_count": len(self.unexplained),
        }


def read_csv(path):
    with open(path) as fh:
        comment = fh.readline()[1:].strip()
        header = fh.readline().strip().split(",")
        rows = np.array([[float(x) for x in line.split(",")] for line in fh])
    return comment, header, rows


def _scenario_text(comment, keys):
    pairs = (item.split("=", 1) for item in comment.split())
    return "\n".join("%s = %s" % (k, v) for k, v in pairs if k in keys) + "\n"


def _states(header, rows):
    re_cols = [header.index("re%d%d" % (i, j)) for i in range(1, 5) for j in range(1, 5)]
    im_cols = [header.index("im%d%d" % (i, j)) for i in range(1, 5) for j in range(1, 5)]
    return (rows[:, re_cols] + 1j * rows[:, im_cols]).reshape(-1, 4, 4)


class Trajectories:
    """The program's trajectory for each distinct dynamics scenario, from
    `twocav evolve` (or from a trajectory CSV the workload already wrote)."""

    def __init__(self, tc, work_dir):
        self.tc = tc
        self.work_dir = work_dir
        self.found = {}  # dynamics scenario text -> (times, states) or None

    def add(self, comment, times, states):
        self.found[self._key(comment)] = (times, states)

    def _key(self, comment):
        return _scenario_text(comment, set(_SCENARIO_KEYS) - set(_NON_DYNAMICS_KEYS))

    def get(self, comment):
        text = self._key(comment)
        if text not in self.found:
            out = os.path.join(self.work_dir, "evolve%d" % len(self.found))
            os.makedirs(out)
            path = os.path.join(out, "scenario.txt")
            with open(path, "w") as fh:
                fh.write(text)
            self.found[text] = None
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.tc.cli.main(["evolve", "--scenario", path, "--out", out])
            except Exception:
                traceback.print_exc(file=sys.stderr)
                code = None
            if code == 0:
                _, header, rows = read_csv(os.path.join(out, "trajectory.csv"))
                self.found[text] = (rows[:, 0], _states(header, rows))
        return text, self.found[text]


def _check_dynamics(tally, name, text, times, states, rng, tc):
    """Sampled states of the program's trajectory against the exact
    propagator."""
    scn = tc.scenario.parse_scenario(text)
    gen = tc.dynamics.generator_matrix(scn.params())
    rho0 = np.asarray(scn.initial_state(), dtype=complex).ravel()
    for k in _sample(rng, len(times), STATE_SAMPLES):
        theta = tc.dynamics.accumulated_theta(scn.model, times[k])
        exact = (linalg.expm(theta * gen) @ rho0).reshape(4, 4)
        gap = float(np.max(np.abs(states[k] - exact)))
        tally.record("trajectory_vs_expm", gap <= TRAJECTORY_TOL,
                     "%s row %d" % (name, k), detail="gap %.3g" % gap)


def _is_x_state(rho, tol=1e-9):
    mask = np.ones((4, 4), dtype=bool)
    mask[[0, 1, 2, 3, 0, 3, 1, 2], [0, 1, 2, 3, 3, 0, 2, 1]] = False
    return float(np.max(np.abs(rho[mask]))) <= tol


def _sample(rng, n, k):
    return sorted(int(i) for i in rng.choice(n, size=min(k, n), replace=False))


def _check_correlations(tally, name, header, rows, states, rng, tc):
    co = tc.correlations
    col = {h: header.index(h) for h in header}
    for k, row in enumerate(rows):
        gap = abs(row[col["log_negativity"]]
                  - math.log2(1.0 + 2.0 * row[col["negativity"]]))
        tally.record("log_negativity_identity", gap <= LOG_NEGATIVITY_TOL,
                     "%s row %d" % (name, k), detail="gap %.3g" % gap)
    for k in _sample(rng, len(rows), STATE_SAMPLES):
        rho = states[k]
        if not _is_x_state(rho):
            continue
        closed = max(co.concurrence_x_epr(rho), co.concurrence_x_noon(rho))
        gap = abs(rows[k, col["concurrence"]] - closed)
        defect = None
        if gap > CONCURRENCE_TOL:
            defect = _concurrence_defect(rho, gap, closed)
        tally.record("concurrence_vs_x_closed_form", gap <= CONCURRENCE_TOL,
                     "%s row %d" % (name, k), defect, "gap %.3g" % gap)
    for k in _sample(rng, len(rows), DISCORD_SAMPLES):
        rho = states[k]
        value = rows[k, col["discord"]]
        gap = abs(value - co.discord_bruteforce(rho))
        defect = None
        if gap > DISCORD_TOL:
            defect = _discord_defect(rho, value, co)
        tally.record("discord_vs_bruteforce", gap <= DISCORD_TOL,
                     "%s row %d" % (name, k), defect, "gap %.3g" % gap)


_SPIN_FLIP = np.kron([[0.0, -1.0j], [1.0j, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]])


def _concurrence_defect(rho, gap, closed):
    """The general Wootters formula takes square roots of the eigenvalues
    of the non-Hermitian rho rho~.  A rounding error d = 4 eps lam_max^2 in
    an eigenvalue lam_i^2 moves lam_i by up to min(sqrt(d), d / (2 lam_i)),
    which reaches 1e-8 near pure states.  Attribute the gap to that when it
    is within this rounding bound and the same lambdas taken as singular
    values of sqrt(rho) Y sqrt(rho)* (no square root of a rounded
    eigenvalue) reproduce the closed form."""
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam = np.sort(np.linalg.svd(root @ _SPIN_FLIP @ root.conj(), compute_uv=False))
    stable = max(0.0, lam[3] - lam[2] - lam[1] - lam[0])
    d = 4.0 * np.finfo(float).eps * lam[3] ** 2
    bound = sum(min(math.sqrt(d), d / (2.0 * x)) if x > 0 else math.sqrt(d) for x in lam)
    if gap > bound or abs(stable - closed) > CONCURRENCE_TOL:
        return None
    return CONCURRENCE_PRECISION


def _discord_defect(rho, value, co):
    """The closed form assumes a unit-trace state.  Attribute the gap to
    that when the value is the closed form of this unnormalised state and
    normalising first makes closed form and brute force agree."""
    trace = float(np.real(np.trace(rho)))
    if abs(trace - 1.0) <= 1e-9 or not _is_x_state(rho):
        return None
    if abs(value - co.discord_x(rho)) > 1e-6:
        return None
    unit = rho / trace
    if abs(co.discord_x(unit) - co.discord_bruteforce(unit)) > DISCORD_TOL:
        return None
    return DISCORD_UNNORMALISED


def _check_wigner(tally, name, header, rows, states, rng, window):
    signs = np.array([(-1.0) ** (n + m) for n, m in window.basis_labels()])
    col = header.index("w_origin")
    for k in _sample(rng, len(rows), STATE_SAMPLES):
        rho = states[k]
        expected = 4.0 / math.pi**2 * float(np.sum(np.real(np.diag(rho)) * signs))
        gap = abs(rows[k, col] - expected)
        tally.record("w_origin_vs_parity_sum", gap <= W_ORIGIN_TOL,
                     "%s row %d" % (name, k), detail="gap %.3g" % gap)


_PAULI = (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]),
          np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[1.0, 0.0], [0.0, -1.0]]))


def _channel_fidelity(channels, p, q, index_order, tp):
    """Teleportation fidelity of each channel state, from the channel's
    definition: F = sum_ab w_a w_b Tr(rho_in L_ab rho_in R_ab) with w the
    Bell overlaps, L_ab = s_a x s_b and R_ab = s_b x s_a ('printed') or
    L_ab ('symmetric')."""
    rho_in = tp.input_state(p, q).matrix
    pair = np.empty((4, 4))
    for a in range(4):
        for b in range(4):
            left = np.kron(_PAULI[a], _PAULI[b])
            right = np.kron(_PAULI[b], _PAULI[a]) if index_order == "printed" else left
            pair[a, b] = np.real(np.trace(rho_in @ left @ rho_in @ right))
    w = np.real(np.einsum("aij,nji->na", np.array(tp.BELL_PROJECTORS), channels))
    return np.einsum("na,ab,nb->n", w, pair, w)


def _check_teleport(tally, name, header, rows, states, rng, scn, tc):
    tp = tc.teleport
    col = {h: header.index(h) for h in header}
    picked = _sample(rng, len(rows), TELEPORT_SAMPLES)
    channels = states[picked]
    exact = _channel_fidelity(channels, scn.p, scn.q, scn.index_order, tp)
    explained = _explained_fidelity_gaps(channels, scn, tp)
    for i, k in enumerate(picked):
        gap = abs(rows[k, col["fidelity"]] - exact[i])
        tally.record("fidelity_vs_channel", gap <= FIDELITY_TOL,
                     "%s row %d" % (name, k), detail="gap %.3g" % gap)
        gap = abs(rows[k, col["fidelity"]] - rows[k, col["fidelity_closed"]])
        tally.record("fidelity_vs_closed_form", gap <= FIDELITY_TOL,
                     "%s row %d" % (name, k), explained[i], "gap %.3g" % gap)


def _explained_fidelity_gaps(channels, scn, tp):
    """Per row, the known defects that explain a closed-form fidelity gap,
    or None.  The closed form is exact at p = 0 only, and closed_form_noon
    reads rho11 where the Bell weights use rho11 + rho44.  A row's gap is
    attributed to the causes present in its scenario when recomputing the
    row without them (at p = 0, with rho44 folded into rho11) makes closed
    form and channel agree."""
    causes, p, folded = [], scn.p, channels.copy()
    if scn.p != 0.0:
        causes.append(FIDELITY_P_NONZERO)
        p = 0.0
    if scn.state == "noon" and np.max(np.abs(channels[:, 3, 3])) > 1e-12:
        causes.append(NOON_DROPS_RHO44)
        folded[:, 0, 0] += folded[:, 3, 3]
        folded[:, 3, 3] = 0.0
    if not causes:
        return [None] * len(channels)
    redone = _channel_fidelity(channels, p, scn.q, scn.index_order, tp)
    closed = tp.closed_form_epr if scn.state == "epr" else tp.closed_form_noon
    label = "+".join(causes)
    out = []
    for rho, exact in zip(folded, redone):
        c1, c2, _ = closed(rho, p, scn.q)
        agrees = abs(exact - tp.closed_form_fidelity(c1, c2, scn.q)) <= FIDELITY_TOL
        out.append(label if agrees else None)
    return out


def check_outputs(out_dir, seed, tc, work_dir):
    """Run every applicable check on the CSVs under out_dir; scratch files
    go to work_dir."""
    tally = Tally()
    trajectories = Trajectories(tc, work_dir)
    checked_dynamics = set()
    paths = sorted(os.path.join(d, f) for d, _, files in os.walk(out_dir)
                   for f in files if f.endswith(".csv"))
    csvs = [(os.path.relpath(path, out_dir),) + read_csv(path) for path in paths]
    for name, comment, header, rows in csvs:
        if "re11" in header:
            trajectories.add(comment, rows[:, 0], _states(header, rows))
    for name, comment, header, rows in csvs:
        if "volume" in header:
            continue
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        text, found = trajectories.get(comment)
        if found is None or not np.array_equal(found[0], rows[:, 0]):
            tally.record("program_states", False, name,
                         detail="`twocav evolve` gave no matching trajectory")
            continue
        times, states = found
        if text not in checked_dynamics:
            checked_dynamics.add(text)
            _check_dynamics(tally, name, text, times, states, rng, tc)
        scn = tc.scenario.parse_scenario(_scenario_text(comment, _SCENARIO_KEYS))
        if "discord" in header:
            _check_correlations(tally, name, header, rows, states, rng, tc)
        elif "w_origin" in header:
            _check_wigner(tally, name, header, rows, states, rng, scn.window)
        elif "fidelity_closed" in header:
            _check_teleport(tally, name, header, rows, states, rng, scn, tc)
    return tally
