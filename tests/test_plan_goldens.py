"""Golden plan snapshots for Table-1 query templates.

Every committed file under ``tests/golden/plans/`` is the rendered
explain of one (query, form) pair — forms ``logical`` (pre-rules),
``optimized`` (post-rules logical), and ``physical`` (lowered operators).
The tests fail on any drift; refresh intentionally with::

    PYTHONPATH=src python -m pytest tests/test_plan_goldens.py --update-goldens

and commit the diff.  The snapshots are the PR-level guarantee that the
three-layer planning stack keeps producing the seed's exact plan shapes.
"""

import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "plans"

#: (snapshot name, Table-1 query template).
TEMPLATES = [
    (
        "q1_states_webcount",
        "Select Name, Count From States, WebCount Where Name = T1 "
        "Order By Count Desc",
    ),
    (
        "q4_two_vtables",
        "Select Capital, C.Count, Name, S.Count From States, WebCount C, "
        "WebCount S Where Capital = C.T1 and Name = S.T1 "
        "Order By C.Count Desc",
    ),
    (
        "q5_webpages_rank",
        "Select Name, URL, Rank From States, WebPages "
        "Where Name = T1 and Rank <= 2 Order By Name, Rank",
    ),
]

FORMS = ("logical", "optimized", "physical")


def _golden_path(name, form):
    return GOLDEN_DIR / "{}.{}.txt".format(name, form)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("name,sql", TEMPLATES, ids=[t[0] for t in TEMPLATES])
def test_plan_snapshot(engine, update_goldens, name, sql, form):
    rendered = engine.explain(sql, form=form) + "\n"
    path = _golden_path(name, form)
    if update_goldens:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered)
        return
    assert path.exists(), (
        "missing golden {}; run with --update-goldens to create it".format(path)
    )
    assert rendered == path.read_text(), (
        "plan snapshot drift for {} ({} form); if intentional, refresh with "
        "--update-goldens and commit the diff".format(name, form)
    )


def test_no_orphan_goldens():
    """Every committed snapshot corresponds to a live (query, form) pair."""
    expected = {
        "{}.{}.txt".format(name, form)
        for name, _ in TEMPLATES
        for form in FORMS
    }
    actual = {p.name for p in GOLDEN_DIR.glob("*.txt")}
    assert actual == expected


@pytest.mark.parametrize("name,sql", TEMPLATES, ids=[t[0] for t in TEMPLATES])
def test_rules_form_lists_one_insert_per_reqsync(engine, name, sql):
    """Acceptance: ``explain(form="rules")`` shows >=1 firing per ReqSync."""
    physical = engine.explain(sql, form="physical")
    rules = engine.explain(sql, form="rules")
    placed = sum(
        1 for line in physical.splitlines() if line.strip().startswith("ReqSync")
    )
    inserts = sum(
        1 for line in rules.splitlines() if line.startswith("reqsync.insert")
    )
    assert placed >= 1
    assert inserts >= placed
    # Every firing line carries the before/after node counts.
    for line in rules.splitlines():
        assert "nodes" in line and "->" in line
