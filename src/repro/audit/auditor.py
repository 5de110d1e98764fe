"""Independent re-certification of discovery artifacts.

Every check here re-derives what the report claims through a code path the
miners never execute: FDs by partition refinement over the coded columns
(:func:`repro.fd.verify.holds_coded`), the minimum cover's completeness and
non-redundancy by a set-based closure written here (not the bitmask
kernel of :mod:`repro.fd`), reliable scores against a plug-in
fraction of information computed from ``np.bincount`` entropies, cluster
assignments against a from-scratch merge-cost fold (no cached
``mass_log_sum``, no packed arrays, no quantization), ``phi = 0`` summaries
against a group-by of identical conditionals written here, and dendrogram /
distribution invariants straight from the definitions.  A cheap wrong
answer here is therefore evidence of a wrong artifact, not of a shared
bug.

Tolerances: re-derived bit quantities agree with the pipeline's up to the
shared loss-quantization grid (relative ``2**-30`` plus the ``2**-40``
floor) and ``math.fsum``-vs-running-sum noise, so every comparison allows
``_BITS_TOL`` absolute plus ``_REL_TOL`` relative slack.  Anything beyond
that is a violation.

Artifacts produced by a degraded stage are *skipped*, not failed: the
report already flags them, and certifying what a fallback path never
promised would manufacture false alarms.  The certificate says which
checks were skipped and why.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.fd.dependency import FD
from repro.fd.reliable import ReliableFD
from repro.fd.verify import _group_codes, holds_coded
from repro.seeding import sample_indices

#: Version stamp written into every certificate (bump on schema change).
AUDIT_VERSION = 1

_LN2 = math.log(2.0)

#: Absolute slack for re-derived bit quantities (fsum vs running sums).
_BITS_TOL = 1e-6

#: Relative slack covering the shared loss-quantization grid.
_REL_TOL = 2.0 ** -28

#: Cap on (sampled rows x summaries) cost cells in the assignment check.
_MAX_ASSIGN_CELLS = 250_000

#: Cap on the densified (summaries x value-ids) mass matrix; beyond this
#: the assignment check stays on the scalar per-summary path.
_MAX_DENSE_CELLS = 4_000_000


def _xlogx(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


def _xlogx_np(x):
    """Vectorized ``x * ln x`` with the ``0 ln 0 = 0`` convention."""
    result = np.zeros_like(x, dtype=np.float64)
    positive = x > 0.0
    np.multiply(x, np.log(x, where=positive, out=np.zeros_like(result)),
                where=positive, out=result)
    return result


def _tol(reference: float) -> float:
    return _BITS_TOL + _REL_TOL * abs(reference)


def _closure(attributes, pairs) -> set:
    """``X+`` under ``(lhs, rhs)`` frozenset pairs, by repeated saturation.

    Written here on purpose: the cover it certifies comes from the bitmask
    kernel in :mod:`repro.fd`, and sharing that code would let one bug
    certify itself.
    """
    closed = set(attributes)
    grew = True
    while grew:
        grew = False
        for lhs, rhs in pairs:
            if lhs <= closed and not rhs <= closed:
                closed |= rhs
                grew = True
    return closed


def _verify_cover(certificate, cover, mined) -> int:
    """Check that ``cover`` implies every ``mined`` FD and that no cover FD
    is implied by the others; returns the number of FDs examined."""
    pairs = [(frozenset(fd.lhs), frozenset(fd.rhs)) for fd in cover]
    needed: dict = {}
    for fd in mined:
        needed.setdefault(frozenset(fd.lhs), set()).update(fd.rhs)
    for lhs, rhs in needed.items():
        missing = rhs - _closure(lhs, pairs)
        if missing:
            certificate.violations.append(Violation(
                check="cover", artifact=f"mined:{FD(lhs, missing)}",
                detail="mined dependency is not implied by the cover "
                       "(the cover lost information)"))
    for index, (lhs, rhs) in enumerate(pairs):
        if rhs <= _closure(lhs, pairs[:index] + pairs[index + 1:]):
            certificate.violations.append(Violation(
                check="cover", artifact=f"cover:{cover[index]}",
                detail="cover dependency is implied by the other cover "
                       "dependencies (the cover is not minimal)"))
    return len(mined) + len(cover)


def _identical_groups(rows) -> list[list[int]]:
    """Object indices grouped by bitwise-identical conditional.

    Written here on purpose, keyed differently (a frozenset of items) from
    the pipeline's group-by in :mod:`repro.clustering.limbo`.
    """
    groups: dict = {}
    for index, row in enumerate(rows):
        groups.setdefault(frozenset(row.items()), []).append(index)
    return list(groups.values())


def _verify_exact(certificate, stage, rows, member_lists) -> int:
    """Check that ``phi = 0`` summaries are exactly the identical-row groups.

    Each group of objects with one conditional must be held by exactly one
    summary, and that summary must hold nothing else (Section 6.1.1: phi 0
    "finds only exact duplicates", and loses nothing).  Returns the number
    of groups examined.
    """
    owner: dict = {}
    for index, members in enumerate(member_lists):
        for member in members:
            owner[member] = index
    groups = _identical_groups(rows)
    if len(member_lists) != len(groups):
        certificate.violations.append(Violation(
            check="exactness", artifact=f"{stage}:summaries",
            detail=f"{len(member_lists)} summaries for {len(groups)} groups "
                   f"of identical conditionals"))
    for group in groups:
        held = {owner.get(member) for member in group}
        if len(held) != 1 or None in held:
            certificate.violations.append(Violation(
                check="exactness", artifact=f"{stage}:object {group[0]}",
                detail=f"{len(group)} objects with one conditional are split "
                       f"across summaries {sorted(held, key=str)}"))
        elif sorted(member_lists[held.pop()]) != group:
            certificate.violations.append(Violation(
                check="exactness", artifact=f"{stage}:object {group[0]}",
                detail="the summary holding this group of identical "
                       "conditionals also holds other objects"))
    return len(groups)


# -- certificate structure ----------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One artifact that failed independent re-verification."""

    check: str
    artifact: str
    detail: str

    def to_json(self) -> dict:
        return {"check": self.check, "artifact": self.artifact,
                "detail": self.detail}

    def __str__(self) -> str:
        return f"[{self.check}] {self.artifact}: {self.detail}"


@dataclass
class CheckResult:
    """Outcome of one audit check over a family of artifacts."""

    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""
    checked: int = 0

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status,
                "detail": self.detail, "checked": self.checked}


@dataclass
class AuditCertificate:
    """Machine-readable verdict of one audit run (``audit.json``)."""

    checks: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    seed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def artifacts_checked(self) -> int:
        return sum(check.checked for check in self.checks)

    def to_json(self) -> dict:
        return {
            "version": AUDIT_VERSION,
            "ok": self.ok,
            "seed": self.seed,
            "artifacts_checked": self.artifacts_checked,
            "checks": [check.to_json() for check in self.checks],
            "violations": [violation.to_json() for violation in self.violations],
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def describe(self) -> str:
        if self.ok:
            ran = sum(1 for c in self.checks if c.status == "pass")
            skipped = sum(1 for c in self.checks if c.status == "skipped")
            note = f"; {skipped} skipped" if skipped else ""
            return (f"certified: {self.artifacts_checked} artifacts across "
                    f"{ran} checks{note}")
        return (f"REJECTED: {len(self.violations)} violation(s), first: "
                f"{self.violations[0]}")

    def render(self) -> str:
        lines = [f"Audit ({'ok' if self.ok else 'REJECTED'}): "
                 f"{self.describe()}"]
        for check in self.checks:
            line = f"  [{check.status:>7}] {check.name}"
            if check.checked:
                line += f" ({check.checked} artifacts)"
            if check.detail:
                line += f": {check.detail}"
            lines.append(line)
        for violation in self.violations:
            lines.append(f"  VIOLATION {violation}")
        return "\n".join(lines)


# -- independent math ---------------------------------------------------------------


def merge_cost_bits(weight_a: float, mass_a: dict,
                    weight_b: float, mass_b: dict) -> float:
    """``delta_I`` in bits, re-derived from the joint masses.

    ``w ln w - wa ln wa - wb ln wb + sum_k [xlogx(ma) + xlogx(mb) -
    xlogx(ma + mb)]`` over the union support (terms outside ``b``'s support
    cancel exactly, so iterating ``b`` suffices).  Unquantized, folded with
    ``math.fsum`` -- deliberately not :func:`repro.clustering.dcf.merge_cost`.
    """
    w = weight_a + weight_b
    terms = [_xlogx(w) - _xlogx(weight_a) - _xlogx(weight_b)]
    for column, m_b in mass_b.items():
        m_a = mass_a.get(column, 0.0)
        terms.append(_xlogx(m_a) + _xlogx(m_b) - _xlogx(m_a + m_b))
    return max(math.fsum(terms) / _LN2, 0.0)


def _groups_entropy_bits(groups: np.ndarray, n: int) -> float:
    counts = np.bincount(groups)
    counts = counts[counts > 0]
    p = counts / float(n)
    return float(-(p * np.log2(p)).sum())


def information_fraction(relation, fd: FD) -> float:
    """Plug-in fraction of information ``I(X;Y) / H(Y)``, re-derived.

    Uses ``H(Y) + H(X) - H(XY)`` over dense group codes -- no partition
    caches, no miner state.  Conventions match
    :func:`repro.fd.fraction_of_information`: 1.0 when ``Y`` is constant
    (the FD trivially holds), clamped into ``[0, 1]``.
    """
    n = len(relation)
    if n == 0:
        return 1.0
    h_y = _groups_entropy_bits(_group_codes(relation, fd.rhs), n)
    if h_y <= 0.0:
        return 1.0
    h_x = (_groups_entropy_bits(_group_codes(relation, fd.lhs), n)
           if fd.lhs else 0.0)
    h_xy = _groups_entropy_bits(_group_codes(relation, fd.lhs | fd.rhs), n)
    return max(0.0, min(1.0, (h_y + h_x - h_xy) / h_y))


# -- the auditor --------------------------------------------------------------------


class Auditor:
    """Re-certifies every artifact of a :class:`DiscoveryReport`.

    Parameters
    ----------
    seed:
        Seeds every sampled check through :mod:`repro.seeding` scopes, so
        two audits of the same report examine exactly the same artifacts.
    row_sample:
        Tuples re-scored in the cluster-assignment check.
    fd_sample:
        Non-cover dependencies re-checked (every cover FD is always
        checked; the cover is the load-bearing artifact).
    summary_sample:
        DCF summaries examined per clustering in the distribution check.
    """

    def __init__(self, seed: int = 0, row_sample: int = 32,
                 fd_sample: int = 64, summary_sample: int = 16):
        self.seed = int(seed)
        self.row_sample = int(row_sample)
        self.fd_sample = int(fd_sample)
        self.summary_sample = int(summary_sample)

    # -- entry point -----------------------------------------------------------------

    def audit(self, report, source_relation=None, store=None,
              expected_params=None) -> AuditCertificate:
        """Audit a live report (and optionally its checkpoint store)."""
        certificate = AuditCertificate(seed=self.seed)
        self._groups_cache = {}
        self._check_dependencies(certificate, report)
        self._check_cover(certificate, report)
        self._check_ranked(certificate, report)
        self._check_assignment(certificate, report)
        self._check_exactness(certificate, report)
        self._check_dendrogram(certificate, report)
        self._check_distributions(certificate, report)
        self._check_digests(certificate, report, source_relation, store,
                            expected_params)
        return certificate

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _stage_ok(report, stage: str) -> bool:
        outcome = report.outcome(stage)
        return outcome is not None and outcome.ok

    def _record(self, certificate, name, before, checked, detail=""):
        failed = len(certificate.violations) - before
        certificate.checks.append(CheckResult(
            name=name,
            status="fail" if failed else "pass",
            detail=detail if not failed else
            (f"{failed} violation(s)" + (f"; {detail}" if detail else "")),
            checked=checked,
        ))

    @staticmethod
    def _skip(certificate, name, detail):
        certificate.checks.append(
            CheckResult(name=name, status="skipped", detail=detail))

    # -- dependencies ----------------------------------------------------------------

    def _check_dependencies(self, certificate, report):
        if not self._stage_ok(report, "mining"):
            self._skip(certificate, "dependencies",
                       "mining degraded; dependencies not certified")
            return
        relation = report.relation
        before = len(certificate.violations)
        checked = 0
        sampled_note = ""

        cover_ok = self._stage_ok(report, "cover")
        if report.cover and cover_ok:
            for fd in report.cover:
                checked += 1
                self._verify_entry(certificate, relation, fd, "cover")
        elif report.cover and not cover_ok:
            sampled_note = "cover degraded, skipped; "

        cover_set = set(report.cover)
        extras = [entry for entry in report.dependencies
                  if entry not in cover_set] \
            if report.cover else list(report.dependencies)
        if len(extras) > self.fd_sample:
            picked = sample_indices(len(extras), self.fd_sample, self.seed,
                                    "audit.dependencies")
            extras = [extras[i] for i in picked]
            sampled_note += (f"sampled {len(extras)} of "
                             f"{len(report.dependencies)} mined dependencies")
        for entry in extras:
            checked += 1
            self._verify_entry(certificate, relation, entry, "mined")
        self._record(certificate, "dependencies", before, checked,
                     sampled_note)

    def _check_cover(self, certificate, report):
        if not (self._stage_ok(report, "mining")
                and self._stage_ok(report, "cover")):
            self._skip(certificate, "cover",
                       "mining or cover degraded; cover not certified")
            return
        if not all(isinstance(entry, FD) for entry in report.dependencies):
            self._skip(certificate, "cover",
                       "reliable mining: the cover is the ranked shortlist, "
                       "not a minimum cover")
            return
        before = len(certificate.violations)
        checked = _verify_cover(certificate, list(report.cover),
                                list(report.dependencies))
        self._record(certificate, "cover", before, checked)

    def _groups(self, relation, attributes):
        """Memoized :func:`repro.fd.verify._group_codes` for one audit pass.

        LHS attribute sets repeat heavily across a cover; caching the
        partition codes keeps the exact re-check inside the audit's
        wall-clock budget without sampling the cover.
        """
        key = frozenset(attributes)
        codes = self._groups_cache.get(key)
        if codes is None:
            from repro.fd.verify import _group_codes

            codes = _group_codes(relation, attributes)
            self._groups_cache[key] = codes
        return codes

    def _holds(self, relation, fd) -> bool:
        if len(relation) == 0:
            return True
        lhs = self._groups(relation, fd.lhs)
        both = self._groups(relation, fd.lhs | fd.rhs)
        n_lhs = int(lhs.max()) + 1 if lhs.size else 0
        n_both = int(both.max()) + 1 if both.size else 0
        return n_lhs == n_both

    def _verify_entry(self, certificate, relation, entry, family):
        if isinstance(entry, ReliableFD):
            self._verify_reliable(certificate, relation, entry, family)
        elif isinstance(entry, FD):
            if not self._holds(relation, entry):
                certificate.violations.append(Violation(
                    check="dependencies", artifact=f"{family}:{entry}",
                    detail="claimed exact dependency does not hold on the "
                           "instance (partition refinement split an "
                           "LHS class)"))
        else:  # ApproximateFD-style: carries .fd and .error
            fd = getattr(entry, "fd", None)
            error = getattr(entry, "error", None)
            if fd is None or error is None:
                certificate.violations.append(Violation(
                    check="dependencies", artifact=f"{family}:{entry!r}",
                    detail="unrecognized dependency artifact type"))
                return
            from repro.fd.verify import g3_error_coded
            actual = g3_error_coded(relation, fd)
            if abs(actual - error) > _tol(error):
                certificate.violations.append(Violation(
                    check="dependencies", artifact=f"{family}:{entry}",
                    detail=f"stated g3={error:.6f} but instance "
                           f"g3={actual:.6f}"))

    def _verify_reliable(self, certificate, relation, entry, family):
        artifact = f"{family}:{entry.fd}"
        if not (0.0 <= entry.score <= 1.0) or entry.confidence_radius < 0.0:
            certificate.violations.append(Violation(
                check="dependencies", artifact=artifact,
                detail=f"score {entry.score!r} / radius "
                       f"{entry.confidence_radius!r} out of range"))
            return
        if entry.score > entry.information + _tol(entry.information):
            certificate.violations.append(Violation(
                check="dependencies", artifact=artifact,
                detail=f"bias-corrected score {entry.score:.6f} exceeds its "
                       f"own information {entry.information:.6f}"))
            return
        recomputed = information_fraction(relation, entry.fd)
        if entry.sampled:
            # Sampled scores only promise one-sided containment: the true
            # information lies within the stated radius above the score.
            bound = recomputed + entry.confidence_radius
            if entry.score > bound + _tol(bound):
                certificate.violations.append(Violation(
                    check="dependencies", artifact=artifact,
                    detail=f"sampled score {entry.score:.6f} exceeds "
                           f"re-derived information {recomputed:.6f} + "
                           f"radius {entry.confidence_radius:.6f}"))
        else:
            if abs(recomputed - entry.information) > _tol(recomputed):
                certificate.violations.append(Violation(
                    check="dependencies", artifact=artifact,
                    detail=f"stated information {entry.information:.6f} != "
                           f"re-derived {recomputed:.6f}"))

    # -- ranking ---------------------------------------------------------------------

    def _check_ranked(self, certificate, report):
        if not self._stage_ok(report, "rank"):
            self._skip(certificate, "ranking",
                       "rank degraded; ranking not certified")
            return
        before = len(certificate.violations)
        # The rank stage collapses equal antecedents (one entry per LHS,
        # RHS union), so membership is checked against the mined
        # dependencies *after* the same collapse, not entry-for-entry.
        allowed: dict = {}
        mined = [entry.fd if isinstance(entry, ReliableFD) else
                 getattr(entry, "fd", entry)
                 for entry in list(report.dependencies) + list(report.cover)]
        for fd in mined:
            allowed.setdefault(frozenset(fd.lhs), set()).update(fd.rhs)
        for index, ranked in enumerate(report.ranked):
            lhs = frozenset(ranked.fd.lhs)
            reachable = allowed.get(lhs, set()) | set(lhs)
            if not set(ranked.fd.rhs) <= reachable:
                certificate.violations.append(Violation(
                    check="ranking", artifact=f"ranked[{index}]:{ranked.fd}",
                    detail="ranked dependency was never mined (no mined "
                           "dependency set with this antecedent covers "
                           "its consequent)"))
            if not math.isinf(ranked.rank) and ranked.rank < -_BITS_TOL:
                certificate.violations.append(Violation(
                    check="ranking", artifact=f"ranked[{index}]:{ranked.fd}",
                    detail=f"negative rank {ranked.rank!r}"))
        self._record(certificate, "ranking", before, len(report.ranked))

    # -- cluster assignments ---------------------------------------------------------

    def _check_assignment(self, certificate, report):
        if not self._stage_ok(report, "tuple_clustering"):
            self._skip(certificate, "assignment",
                       "tuple clustering degraded; assignment not certified")
            return
        clustering = report.tuple_clustering
        view = getattr(clustering, "view", None)
        limbo = getattr(clustering, "limbo", None)
        if view is None or limbo is None or not limbo.summaries:
            self._skip(certificate, "assignment", "no summaries to audit")
            return
        before = len(certificate.violations)
        summaries = [(dcf.weight, dcf.mass) for dcf in limbo.summaries]
        checked = self._verify_assignment(
            certificate, clustering.assignment, view.rows, view.priors,
            summaries, n_tuples=len(clustering.relation))
        self._record(certificate, "assignment", before, checked,
                     f"re-scored {checked} of {len(clustering.assignment)} "
                     f"tuples against {len(summaries)} summaries")

    def _verify_assignment(self, certificate, assignment, rows, priors,
                           summaries, n_tuples):
        if len(assignment) != n_tuples:
            certificate.violations.append(Violation(
                check="assignment", artifact="assignment",
                detail=f"length {len(assignment)} != {n_tuples} tuples"))
            return 0
        cap = max(4, min(self.row_sample,
                         _MAX_ASSIGN_CELLS // max(1, len(summaries))))
        picked = sample_indices(n_tuples, min(cap, n_tuples), self.seed,
                                "audit.assignment")
        dense = self._dense_summaries(summaries, rows, picked)
        for i in picked:
            i = int(i)
            label = assignment[i]
            if not (0 <= label < len(summaries)):
                certificate.violations.append(Violation(
                    check="assignment", artifact=f"cluster:tuple {i}",
                    detail=f"label {label!r} outside "
                           f"[0, {len(summaries)})"))
                continue
            prior = priors[i]
            if dense is not None:
                costs = self._row_costs(dense, rows[i], prior)
                best_index = int(np.argmin(costs))
                best = float(costs[best_index])
                cost_label = float(costs[label])
            else:
                mass_row = {k: prior * p for k, p in rows[i].items()}
                listed = [merge_cost_bits(weight, mass, prior, mass_row)
                          for weight, mass in summaries]
                best = min(listed)
                best_index = listed.index(best)
                cost_label = listed[label]
            if cost_label > best + _tol(best):
                certificate.violations.append(Violation(
                    check="assignment", artifact=f"cluster:tuple {i}",
                    detail=f"assigned summary {label} costs "
                           f"{cost_label:.9f} bits but summary "
                           f"{best_index} costs only {best:.9f}"))
        return len(picked)

    @staticmethod
    def _dense_summaries(summaries, rows, picked):
        """A dense ``(weights, xlogx(weights), mass_matrix)`` triple.

        Vectorizes the per-row cost scan when the value-id space is small
        enough; ``None`` falls the caller back to the scalar path (same
        arithmetic, one summary at a time).
        """
        max_id = -1
        for _, mass in summaries:
            if mass:
                max_id = max(max_id, max(mass))
        for i in picked:
            row = rows[int(i)]
            if row:
                max_id = max(max_id, max(row))
        n_values = max_id + 1
        if n_values <= 0 or len(summaries) * n_values > _MAX_DENSE_CELLS:
            return None
        weights = np.array([w for w, _ in summaries], dtype=np.float64)
        matrix = np.zeros((len(summaries), n_values), dtype=np.float64)
        for index, (_, mass) in enumerate(summaries):
            if mass:
                keys = np.fromiter(mass.keys(), dtype=np.int64, count=len(mass))
                values = np.fromiter(mass.values(), dtype=np.float64,
                                     count=len(mass))
                matrix[index, keys] = values
        return weights, _xlogx_np(weights), matrix

    @staticmethod
    def _row_costs(dense, row, prior):
        """Merge cost in bits of one tuple against every summary at once."""
        weights, xlogx_weights, matrix = dense
        keys = np.fromiter(row.keys(), dtype=np.int64, count=len(row))
        mass_b = prior * np.fromiter(row.values(), dtype=np.float64,
                                     count=len(row))
        mass_a = matrix[:, keys]
        merged = _xlogx_np(mass_a) + _xlogx_np(mass_b)[None, :] \
            - _xlogx_np(mass_a + mass_b[None, :])
        costs = (_xlogx_np(weights + prior) - xlogx_weights
                 - _xlogx(prior) + merged.sum(axis=1)) / _LN2
        return np.maximum(costs, 0.0)

    # -- phi = 0 exactness ------------------------------------------------------------

    def _check_exactness(self, certificate, report):
        """Re-group every ``phi = 0`` clustering by identical conditional.

        Applies to a stage that took its primary path with ``phi = 0``, no
        leaf-buffer rebuild and no ``max_summaries`` cap, in a run that
        climbed no memory-ladder rung: there, Phase 1 promises one summary
        per group of identical objects.
        """
        memory = report.outcome("memory")
        if memory is not None and not memory.ok:
            self._skip(certificate, "exactness",
                       "memory ladder applied; phi = 0 not promised exact")
            return
        held = []
        for stage, clustering in (
            ("tuple_clustering", report.tuple_clustering),
            ("value_clustering", report.value_clustering),
        ):
            limbo = getattr(clustering, "limbo", None)
            view = getattr(clustering, "view", None)
            if (self._stage_ok(report, stage) and limbo is not None
                    and view is not None and limbo.phi == 0.0
                    and not limbo.buffer_rebuilds and limbo.max_summaries is None):
                held.append((stage, view.rows,
                             [summary.members for summary in limbo.summaries]))
        self._record_exactness(certificate, held)

    def _record_exactness(self, certificate, held):
        """Run :func:`_verify_exact` over ``(stage, rows, member lists)``
        triples and record one ``exactness`` check (skipped when empty)."""
        if not held:
            self._skip(certificate, "exactness",
                       "no phi = 0 clustering without rebuilds")
            return
        before = len(certificate.violations)
        checked = sum(_verify_exact(certificate, stage, rows, members)
                      for stage, rows, members in held)
        self._record(certificate, "exactness", before, checked,
                     "phi = 0 groups re-derived for "
                     + ", ".join(stage for stage, _, _ in held))

    # -- dendrogram ------------------------------------------------------------------

    def _check_dendrogram(self, certificate, report):
        if not self._stage_ok(report, "attribute_grouping"):
            self._skip(certificate, "dendrogram",
                       "attribute grouping degraded; dendrogram not "
                       "certified")
            return
        grouping = report.attribute_grouping
        if grouping is None:
            self._skip(certificate, "dendrogram", "no attribute dendrogram")
            return
        before = len(certificate.violations)
        dendrogram = grouping.dendrogram
        checked = self._verify_merges(
            certificate, dendrogram.n_leaves,
            [(m.left, m.right, m.parent, m.loss)
             for m in dendrogram.merges])
        self._record(certificate, "dendrogram", before, checked)

    def _verify_merges(self, certificate, n_leaves, merges):
        used = set()
        previous = 0.0
        for index, (left, right, parent, loss) in enumerate(merges):
            artifact = f"merge:{index}"
            expected_parent = n_leaves + index
            if parent != expected_parent:
                certificate.violations.append(Violation(
                    check="dendrogram", artifact=artifact,
                    detail=f"parent {parent} != expected "
                           f"{expected_parent}"))
            for child in (left, right):
                if not (0 <= child < parent) or child in used:
                    certificate.violations.append(Violation(
                        check="dendrogram", artifact=artifact,
                        detail=f"child {child} invalid or merged twice"))
                used.add(child)
            if loss < -_BITS_TOL:
                certificate.violations.append(Violation(
                    check="dendrogram", artifact=artifact,
                    detail=f"negative merge loss {loss!r}"))
            if loss + _tol(previous) < previous:
                certificate.violations.append(Violation(
                    check="dendrogram", artifact=artifact,
                    detail=f"merge loss {loss!r} dropped below the "
                           f"previous merge's {previous!r} "
                           f"(agglomerative losses must not decrease)"))
            previous = max(previous, loss)
        return len(merges)

    # -- distribution invariants -----------------------------------------------------

    def _check_distributions(self, certificate, report):
        before = len(certificate.violations)
        checked = 0
        for stage, clustering in (
            ("tuple_clustering", report.tuple_clustering),
            ("value_clustering", report.value_clustering),
        ):
            if not self._stage_ok(report, stage):
                continue
            limbo = getattr(clustering, "limbo", None)
            view = getattr(clustering, "view", None)
            if view is not None and getattr(view, "priors", None):
                checked += 1
                total = math.fsum(view.priors)
                if abs(total - 1.0) > _tol(1.0):
                    certificate.violations.append(Violation(
                        check="distributions",
                        artifact=f"{stage}:priors",
                        detail=f"priors sum to {total!r}, not 1"))
            if limbo is None or not limbo.summaries:
                continue
            summaries = limbo.summaries
            picked = sample_indices(
                len(summaries), min(self.summary_sample, len(summaries)),
                self.seed, f"audit.distributions.{stage}")
            for j in picked:
                checked += 1
                self._verify_dcf(certificate, stage, int(j), summaries[int(j)])
        if checked:
            self._record(certificate, "distributions", before, checked)
        else:
            self._skip(certificate, "distributions",
                       "both clusterings degraded; invariants not certified")

    def _verify_dcf(self, certificate, stage, index, dcf):
        artifact = f"{stage}:summary {index}"
        if dcf.weight <= 0.0:
            certificate.violations.append(Violation(
                check="distributions", artifact=artifact,
                detail=f"non-positive cluster prior {dcf.weight!r}"))
            return
        if any(m < 0.0 for m in dcf.mass.values()):
            certificate.violations.append(Violation(
                check="distributions", artifact=artifact,
                detail="negative joint mass"))
            return
        conditional_sum = math.fsum(dcf.mass.values()) / dcf.weight
        if abs(conditional_sum - 1.0) > _tol(1.0):
            certificate.violations.append(Violation(
                check="distributions", artifact=artifact,
                detail=f"conditional sums to {conditional_sum!r}, not 1"))
            return
        entropy = -math.fsum(
            (m / dcf.weight) * math.log2(m / dcf.weight)
            for m in dcf.mass.values() if m > 0.0)
        bound = math.log2(len(dcf.mass)) if dcf.mass else 0.0
        if entropy < -_BITS_TOL or entropy > bound + _tol(bound):
            certificate.violations.append(Violation(
                check="distributions", artifact=artifact,
                detail=f"entropy {entropy!r} bits outside "
                       f"[0, log2({len(dcf.mass)})]"))
            return
        cached = dcf.entropy_bits()
        if abs(cached - entropy) > _tol(entropy):
            certificate.violations.append(Violation(
                check="distributions", artifact=artifact,
                detail=f"cached entropy {cached!r} != re-derived "
                       f"{entropy!r} (stale sufficient statistics)"))

    # -- digest cross-checks ---------------------------------------------------------

    def _check_digests(self, certificate, report, source_relation, store,
                       expected_params):
        if store is None:
            self._skip(certificate, "digests", "no checkpoint store attached")
            return
        from repro.checkpoint.store import relation_fingerprint
        before = len(certificate.violations)
        checked = 0
        manifest_path = store.directory / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text("utf-8"))
        except (OSError, ValueError) as error:
            certificate.violations.append(Violation(
                check="digests", artifact="manifest",
                detail=f"unreadable checkpoint manifest: {error}"))
            self._record(certificate, "digests", before, checked)
            return
        reference = source_relation if source_relation is not None \
            else report.relation
        checked += 1
        actual = relation_fingerprint(reference)
        if manifest.get("fingerprint") != actual:
            certificate.violations.append(Violation(
                check="digests", artifact="manifest:fingerprint",
                detail=f"checkpoints keyed on "
                       f"{manifest.get('fingerprint')!r} but the relation "
                       f"hashes to {actual!r}"))
        if expected_params is not None:
            checked += 1
            if manifest.get("params") != expected_params:
                certificate.violations.append(Violation(
                    check="digests", artifact="manifest:params",
                    detail="checkpoint manifest params do not match the "
                           "run's mining parameters"))
        self._record(certificate, "digests", before, checked)


# -- standalone JSON-report auditing ------------------------------------------------


def _fd_from_json(blob) -> FD:
    return FD(frozenset(blob["lhs"]), frozenset(blob["rhs"]))


def audit_json_report(blob: dict, relation, seed: int = 0,
                      row_sample: int = 32) -> AuditCertificate:
    """Audit a serialized report (``DiscoveryReport.to_json``) against data.

    This is the ``repro audit <report> <data>`` path: given the report JSON
    and the original relation, re-verify every claim that can be re-derived
    without the live Python objects.  A report whose artifacts were
    tampered with (a flipped FD, a mislabeled cluster, a doctored merge
    loss) comes back with a violation naming the artifact.
    """
    from repro.checkpoint.store import relation_fingerprint
    from repro.relation.matrices import build_tuple_view, build_value_view

    certificate = AuditCertificate(seed=seed)
    auditor = Auditor(seed=seed, row_sample=row_sample)
    artifacts = blob.get("artifacts")
    if not isinstance(artifacts, dict):
        certificate.violations.append(Violation(
            check="report", artifact="report",
            detail="report JSON carries no 'artifacts' section "
                   "(produced without --out-json?)"))
        return certificate

    if not artifacts.get("healthy", blob.get("healthy", False)):
        auditor._skip(certificate, "report",
                      "report is flagged degraded; degraded artifacts are "
                      "not re-certified")
        return certificate

    # The data must be the data the report was mined from.
    stated = artifacts.get("fingerprint")
    actual = relation_fingerprint(relation)
    if stated != actual:
        certificate.violations.append(Violation(
            check="digests", artifact="relation:fingerprint",
            detail=f"report was mined from {stated!r} but the supplied "
                   f"data hashes to {actual!r}"))
        return certificate
    certificate.checks.append(CheckResult(
        name="digests", status="pass", checked=1,
        detail="relation fingerprint matches"))

    # Dependencies.
    before = len(certificate.violations)
    checked = 0
    for entry in artifacts.get("cover", []):
        checked += 1
        fd = _fd_from_json(entry)
        if not holds_coded(relation, fd):
            certificate.violations.append(Violation(
                check="dependencies", artifact=f"cover:{fd}",
                detail="claimed exact dependency does not hold on the "
                       "instance"))
    for entry in artifacts.get("dependencies", []):
        checked += 1
        fd = _fd_from_json(entry)
        if entry.get("kind") == "reliable":
            reliable = ReliableFD(
                fd=fd, score=entry["score"],
                information=entry["information"],
                sampled=entry.get("sampled", False),
                confidence_radius=entry.get("confidence_radius", 0.0))
            auditor._verify_reliable(certificate, relation, reliable, "mined")
        elif not holds_coded(relation, fd):
            certificate.violations.append(Violation(
                check="dependencies", artifact=f"mined:{fd}",
                detail="claimed exact dependency does not hold on the "
                       "instance"))
    auditor._record(certificate, "dependencies", before, checked)

    mined = artifacts.get("dependencies", [])
    if all(entry.get("kind") == "exact" for entry in mined):
        before = len(certificate.violations)
        checked = _verify_cover(
            certificate, [_fd_from_json(e) for e in artifacts.get("cover", [])],
            [_fd_from_json(entry) for entry in mined])
        auditor._record(certificate, "cover", before, checked)
    else:
        auditor._skip(certificate, "cover",
                      "reliable mining: the cover is the ranked shortlist, "
                      "not a minimum cover")

    # Cluster assignment, re-scored against the serialized summaries over a
    # tuple view rebuilt from the data (deterministic given scope).
    assignment = artifacts.get("assignment")
    summaries_blob = artifacts.get("summaries")
    if assignment and summaries_blob:
        before = len(certificate.violations)
        view = build_tuple_view(
            relation, value_scope=artifacts.get("value_scope", "global"))
        summaries = [
            (entry["weight"],
             {int(column): mass for column, mass in entry["mass"].items()})
            for entry in summaries_blob
        ]
        checked = auditor._verify_assignment(
            certificate, assignment, view.rows, view.priors, summaries,
            n_tuples=len(relation))
        auditor._record(certificate, "assignment", before, checked)
    else:
        auditor._skip(certificate, "assignment",
                      "report carries no assignment/summaries")

    # phi = 0 exactness, over views rebuilt from the data (a double-
    # clustered value view depends on a tuple clustering the JSON lacks).
    held = []
    phase1 = artifacts.get("phase1", {})
    for key, stage, build in (("tuples", "tuple_clustering", build_tuple_view),
                              ("values", "value_clustering", build_value_view)):
        entry = phase1.get(key)
        if (entry is not None and entry["phi"] == 0.0
                and not entry["buffer_rebuilds"]
                and not entry["double_clustered"]):
            view = build(relation, value_scope=entry["value_scope"])
            held.append((stage, view.rows, entry["members"]))
    auditor._record_exactness(certificate, held)

    # Dendrogram.
    merges = artifacts.get("merges")
    if merges is not None:
        before = len(certificate.violations)
        checked = auditor._verify_merges(
            certificate, artifacts.get("n_leaves", 0),
            [(m["left"], m["right"], m["parent"], m["loss"])
             for m in merges])
        auditor._record(certificate, "dendrogram", before, checked)
    else:
        auditor._skip(certificate, "dendrogram",
                      "report carries no dendrogram")
    return certificate
