"""Tests for the independent result auditor (``repro.audit``).

The auditor re-derives every artifact a report claims through paths that
share no code with the miners; these tests pin down the independent math
(merge cost, information fraction), certify a clean report end to end,
and then tamper with serialized reports -- a flipped FD, a mislabeled
cluster, a doctored merge loss -- and assert the audit rejects each one
*naming the artifact*.
"""

import copy
import json

import pytest

from repro.audit import AuditCertificate, Auditor, audit_json_report
from repro.audit.auditor import information_fraction, merge_cost_bits
from repro.audit.chaos import chaos_relation
from repro.checkpoint import CheckpointStore
from repro.core.discovery import StructureDiscovery
from repro.fd.dependency import FD
from repro.relation import Relation


@pytest.fixture(scope="module")
def relation():
    return chaos_relation(36)


@pytest.fixture(scope="module")
def report(relation):
    return StructureDiscovery(seed=0).run(relation)


@pytest.fixture(scope="module")
def report_blob(report):
    # Round-trip through JSON text: the CLI audit path sees parsed JSON,
    # not live Python objects.
    return json.loads(json.dumps(report.to_json(top=10)))


class TestIndependentMath:
    def test_merge_cost_identical_distributions_is_free(self):
        mass = {0: 0.3, 1: 0.2}
        cost = merge_cost_bits(0.5, mass, 0.5, mass)
        assert cost == pytest.approx(0.0, abs=1e-12)

    def test_merge_cost_disjoint_supports_costs_entropy(self):
        # Merging two equal-weight point masses on different values costs
        # exactly one bit of mutual information: w * H(1/2, 1/2).
        cost = merge_cost_bits(0.5, {0: 0.5}, 0.5, {1: 0.5})
        assert cost == pytest.approx(1.0, abs=1e-12)

    def test_merge_cost_symmetric_and_nonnegative(self):
        a = (0.25, {0: 0.2, 1: 0.05})
        b = (0.75, {1: 0.4, 2: 0.35})
        forward = merge_cost_bits(*a, *b)
        backward = merge_cost_bits(*b, *a)
        assert forward == pytest.approx(backward, abs=1e-12)
        assert forward >= 0.0

    def test_information_fraction_exact_fd_is_one(self, relation):
        fd = FD(frozenset(["dept"]), frozenset(["loc"]))
        assert information_fraction(relation, fd) == pytest.approx(1.0)

    def test_information_fraction_constant_rhs_is_one(self):
        rel = Relation(["a", "b"], [("x", "c"), ("y", "c"), ("z", "c")])
        fd = FD(frozenset(["a"]), frozenset(["b"]))
        assert information_fraction(rel, fd) == 1.0

    def test_information_fraction_independent_attributes_near_zero(self):
        rows = [(f"r{i}", str(i % 2), str((i // 2) % 2)) for i in range(16)]
        rel = Relation(["k", "a", "b"], rows)
        fd = FD(frozenset(["a"]), frozenset(["b"]))
        assert information_fraction(rel, fd) == pytest.approx(0.0, abs=1e-9)


class TestCleanCertification:
    def test_clean_report_certifies(self, report):
        certificate = Auditor(seed=0).audit(report)
        assert certificate.ok
        assert certificate.artifacts_checked > 0
        names = {check.name for check in certificate.checks}
        assert {"dependencies", "cover", "ranking", "assignment",
                "dendrogram", "distributions"} <= names

    def test_audit_is_deterministic(self, report):
        first = Auditor(seed=3).audit(report).to_json()
        second = Auditor(seed=3).audit(report).to_json()
        assert first == second

    def test_certificate_json_shape(self, report):
        blob = Auditor(seed=0).audit(report).to_json()
        assert blob["ok"] is True
        assert blob["version"] >= 1
        assert blob["artifacts_checked"] == sum(
            check["checked"] for check in blob["checks"])
        assert blob["violations"] == []

    def test_verify_flag_attaches_certificate_and_writes_audit_json(
        self, relation, tmp_path
    ):
        store = CheckpointStore(tmp_path / "ckpt")
        result = StructureDiscovery(
            seed=0, checkpoint=store, verify=True).run(relation)
        assert result.audit_certificate is not None
        assert result.audit_certificate.ok
        verification = result.outcome("verification")
        assert verification is not None and verification.ok
        written = json.loads((tmp_path / "ckpt" / "audit.json").read_text())
        assert written["ok"] is True

    def test_clean_json_report_certifies(self, report_blob, relation):
        certificate = audit_json_report(report_blob, relation, seed=0)
        assert certificate.ok, certificate.describe()
        assert certificate.artifacts_checked > 0


def _corrupt(blob, **edits):
    tampered = copy.deepcopy(blob)
    for path, value in edits.items():
        node = tampered["artifacts"]
        parts = path.split("__")
        for part in parts[:-1]:
            node = node[int(part) if part.isdigit() else part]
        leaf = parts[-1]
        node[int(leaf) if leaf.isdigit() else leaf] = value
    return tampered


class TestTamperedReports:
    def test_flipped_fd_rejected(self, report_blob, relation):
        # proj -> dept does not hold on the chaos relation (p0 covers d0
        # and d2); smuggle it into the cover.
        tampered = _corrupt(
            report_blob, cover__0={"lhs": ["proj"], "rhs": ["dept"]})
        certificate = audit_json_report(tampered, relation, seed=0)
        assert not certificate.ok
        violation = certificate.violations[0]
        assert violation.check == "dependencies"
        assert "proj" in violation.artifact and "dept" in violation.artifact

    def test_mislabeled_cluster_rejected(self, report_blob, relation):
        assignment = list(report_blob["artifacts"]["assignment"])
        n_summaries = len(report_blob["artifacts"]["summaries"])
        assignment[0] = (assignment[0] + 1) % n_summaries
        tampered = _corrupt(report_blob, assignment=assignment)
        certificate = audit_json_report(tampered, relation, seed=0)
        assert not certificate.ok
        assert any(v.check == "assignment" and "tuple 0" in v.artifact
                   for v in certificate.violations)

    def test_doctored_merge_loss_rejected(self, report_blob, relation):
        merges = copy.deepcopy(report_blob["artifacts"]["merges"])
        assert len(merges) >= 2
        merges[-1]["loss"] = -1.0  # losses are non-negative and monotone
        tampered = _corrupt(report_blob, merges=merges)
        certificate = audit_json_report(tampered, relation, seed=0)
        assert not certificate.ok
        assert any(v.check == "dendrogram" for v in certificate.violations)

    def test_wrong_data_rejected_by_fingerprint(self, report_blob):
        other = chaos_relation(12)
        certificate = audit_json_report(report_blob, other, seed=0)
        assert not certificate.ok
        assert certificate.violations[0].artifact == "relation:fingerprint"

    def test_report_without_artifacts_rejected(self, relation):
        certificate = audit_json_report({"healthy": True}, relation)
        assert not certificate.ok
        assert "artifacts" in certificate.violations[0].detail

    def test_degraded_report_is_skipped_not_certified(
        self, report_blob, relation
    ):
        degraded = copy.deepcopy(report_blob)
        degraded["artifacts"]["healthy"] = False
        certificate = audit_json_report(degraded, relation)
        assert certificate.ok  # no violations...
        assert certificate.artifacts_checked == 0  # ...but nothing certified
        assert any(check.status == "skipped" for check in certificate.checks)


class TestLiveTampering:
    def test_live_flipped_cover_fd_rejected(self, relation):
        tampered = StructureDiscovery(seed=0).run(relation)
        bogus = FD(frozenset(["proj"]), frozenset(["dept"]))
        tampered.cover = list(tampered.cover) + [bogus]
        certificate = Auditor(seed=0).audit(tampered)
        assert not certificate.ok
        assert any("proj" in v.artifact for v in certificate.violations)

    def test_cover_missing_a_dependency_rejected(self):
        from repro.datasets import db2_sample

        report = StructureDiscovery(seed=0).run(db2_sample(seed=0).relation)
        assert Auditor(seed=0).audit(report).ok
        dropped = report.cover[0]
        report.cover = list(report.cover[1:])
        certificate = Auditor(seed=0).audit(report)
        assert not certificate.ok
        # Every remaining cover FD holds; only the completeness check fails.
        assert {v.check for v in certificate.violations} == {"cover"}
        assert any(v.artifact.startswith("mined:[" + ",".join(
            sorted(dropped.lhs))) for v in certificate.violations)

    def test_redundant_cover_dependency_rejected(self, report):
        tampered = copy.copy(report)
        derived = next(fd for fd in report.dependencies
                       if fd not in set(report.cover))
        tampered.cover = list(report.cover) + [derived]
        certificate = Auditor(seed=0).audit(tampered)
        assert not certificate.ok
        assert any(v.check == "cover" and v.artifact == f"cover:{derived}"
                   for v in certificate.violations)

    def test_store_fingerprint_cross_check(self, relation, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        result = StructureDiscovery(seed=0, checkpoint=store).run(relation)
        good = Auditor(seed=0).audit(result, store=store)
        assert good.ok
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text("utf-8"))
        manifest["fingerprint"] = "doctored"
        manifest_path.write_text(json.dumps(manifest), "utf-8")
        bad = Auditor(seed=0).audit(result, store=store)
        assert not bad.ok
        assert bad.violations[0].artifact == "manifest:fingerprint"


class TestPhiZeroExactness:
    """phi = 0 summaries must be exactly the groups of identical objects."""

    @pytest.fixture(scope="class")
    def db2_report(self):
        from repro.datasets import db2_sample

        return StructureDiscovery(seed=0).run(db2_sample(seed=7).relation)

    @staticmethod
    def exactness(certificate):
        return next(c for c in certificate.checks if c.name == "exactness")

    def test_clean_phi_zero_report_certifies(self, db2_report):
        live = Auditor(seed=0).audit(db2_report)
        assert live.ok
        check = self.exactness(live)
        assert check.status == "pass" and check.checked > 0
        blob = json.loads(json.dumps(db2_report.to_json()))
        offline = audit_json_report(blob, db2_report.relation, seed=0)
        assert offline.ok, offline.describe()
        assert self.exactness(offline).status == "pass"

    def test_live_split_group_rejected(self, db2_report):
        from repro.clustering import DCF

        tampered = copy.copy(db2_report)
        clustering = copy.copy(db2_report.value_clustering)
        limbo = copy.copy(clustering.limbo)
        view = clustering.view
        summaries = limbo.summaries
        index = next(i for i, s in enumerate(summaries) if len(s.members) > 1)
        head, *tail = summaries[index].members
        first = DCF.singleton(head, view.priors[head], view.rows[head])
        rest = DCF.singleton(tail[0], view.priors[tail[0]], view.rows[tail[0]])
        for member in tail[1:]:
            rest.absorb(DCF.singleton(member, view.priors[member],
                                      view.rows[member]))
        limbo._summaries = summaries[:index] + [first, rest] + summaries[index + 1:]
        clustering.limbo = limbo
        tampered.value_clustering = clustering
        certificate = Auditor(seed=0).audit(tampered)
        assert not certificate.ok
        assert any(v.check == "exactness"
                   and v.artifact.startswith("value_clustering:")
                   for v in certificate.violations)

    def test_sequential_tree_summaries_rejected(self, db2_report):
        # The phi = 0 DCF tree that insertion order steered: on DB2 at data
        # seed 7 it kept identical values in different leaves.
        from repro.clustering import DCF, DCFTree

        view = db2_report.value_clustering.view
        tree = DCFTree(0.0)
        for index, (row, prior) in enumerate(zip(view.rows, view.priors)):
            tree.insert(DCF.singleton(index, prior, row))
        exact = db2_report.value_clustering.limbo.summaries
        assert len(tree.leaves()) > len(exact)
        tampered = copy.copy(db2_report)
        clustering = copy.copy(db2_report.value_clustering)
        clustering.limbo = copy.copy(clustering.limbo)
        clustering.limbo._summaries = tree.leaves()
        tampered.value_clustering = clustering
        certificate = Auditor(seed=0).audit(tampered)
        assert not certificate.ok
        assert {v.check for v in certificate.violations} == {"exactness"}

    def test_json_split_group_rejected(self, db2_report):
        blob = json.loads(json.dumps(db2_report.to_json()))
        members = blob["artifacts"]["phase1"]["values"]["members"]
        group = next(m for m in members if len(m) > 1)
        members.append(group[1:])
        del group[1:]
        certificate = audit_json_report(blob, db2_report.relation, seed=0)
        assert not certificate.ok
        assert {v.check for v in certificate.violations} == {"exactness"}

    def test_positive_phi_is_not_held_to_exactness(self):
        from repro.datasets import db2_sample

        report = StructureDiscovery(seed=0, phi_t=0.5, phi_v=0.5).run(
            db2_sample(seed=7).relation)
        certificate = Auditor(seed=0).audit(report)
        assert certificate.ok
        assert self.exactness(certificate).status == "skipped"


class TestCertificateRendering:
    def test_describe_and_render(self, report):
        certificate = Auditor(seed=0).audit(report)
        assert "certified" in certificate.describe()
        rendered = certificate.render()
        assert rendered.startswith("Audit (ok)")
        assert "dependencies" in rendered

    def test_rejected_describe_names_first_violation(self):
        from repro.audit.auditor import Violation

        certificate = AuditCertificate()
        certificate.violations.append(Violation(
            check="dependencies", artifact="cover:[A] -> [B]",
            detail="does not hold"))
        assert "REJECTED" in certificate.describe()
        assert "cover:[A] -> [B]" in certificate.describe()
