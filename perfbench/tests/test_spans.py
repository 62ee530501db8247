import itertools

import pytest

from spans import Span, Tracer, self_times, subtree


def tree(*rows):
    """Spans from (name, start, end, parent) rows, children linked."""
    spans = [Span(name, start, end, parent) for name, start, end, parent in rows]
    for i, s in enumerate(spans):
        if s.parent is not None:
            spans[s.parent].children.append(i)
    return spans


def test_self_time_of_hand_built_tree():
    spans = tree(
        ("cli.main", 0.0, 10.0, None),
        ("medium.spec_from_json", 1.0, 2.0, 0),
        ("spectral.prepare", 3.0, 9.0, 0),
        ("spectral.eigendecompose", 3.5, 7.5, 2),
        ("spectral.attach_similarity", 7.5, 8.5, 2),
        ("spectral.build_similarity", 7.75, 8.25, 4),
    )
    assert self_times(spans) == pytest.approx([3.0, 1.0, 1.0, 4.0, 0.5, 0.5])
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)
    assert sorted(subtree(spans, 2)) == [2, 3, 4, 5]


def test_tracer_records_parent_links_with_a_fake_clock():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("spectral.inner", lambda x: x + 1)
    outer = tracer.wrap("cli.main", lambda x: inner(x) * 2)
    assert outer(1) == 4
    root, child = tracer.spans
    assert (root.name, root.parent, root.children) == ("cli.main", None, [1])
    assert (child.name, child.parent, child.layer) == ("spectral.inner", 0, "spectral")
    assert (root.start, child.start, child.end, root.end) == (0.0, 1.0, 2.0, 3.0)
    assert self_times(tracer.spans) == [2.0, 1.0]


def test_install_wraps_imported_names_and_uninstall_restores():
    from qpmedia import cli, medium, openquantum, phasespace, spectral

    spec = medium.simple_spec([[2.0]], [[0.1]])
    originals = (cli.spec_from_json, openquantum.decompose_generator, spectral.eigendecompose)
    with Tracer() as tracer:
        assert cli.spec_from_json is medium.spec_from_json
        assert cli.spec_from_json.__wrapped__ is originals[0]
        assert openquantum.decompose_generator is phasespace.decompose_generator
        assert openquantum.decompose_generator.__wrapped__ is originals[1]
        spectral.prepare(spec)
    names = [s.name for s in tracer.spans]
    assert names[0] == "spectral.prepare"
    assert "spectral.eigendecompose" in names
    assert tracer.eig_dims["spectral"] == 2
    assert tracer.counts["spectral.eig_calls"] == 1
    assert (cli.spec_from_json, openquantum.decompose_generator, spectral.eigendecompose) == originals


def test_helpers_are_counted_without_spans():
    import numpy as np

    from qpmedia import medium, phasespace, spectral

    spec = medium.simple_spec([[2.0]], [[0.1]])
    ext, _ = spectral.prepare(spec)
    drive = medium.KickDrive(np.ones(1, dtype=complex))
    with Tracer() as tracer:
        phasespace.propagate_mean(ext, drive, np.zeros(4, dtype=complex), [0.0, 0.01])
    assert {s.name for s in tracer.spans} == {
        "phasespace.propagate_mean",
        "phasespace.decompose_generator",
        "phasespace.symplectic_inverse",
    }
    # 10 quadrature steps of three nodes, plus one per grid point
    assert tracer.counts["phasespace.lambda_at_calls"] == 32
    assert tracer.counts["phasespace.solve_calls"] == 30
    assert phasespace._lambda_at.__name__ == "_lambda_at"
    assert not hasattr(phasespace._lambda_at, "__wrapped__")
