"""Validation-report tests: the cross checks must pass on this build, the
informational entries must surface the documented literal-table
deviations, and the rendering must round-trip to CSV."""

import numpy as np
import pytest

import oracle
from oracle import x_eigenvalues
from unruhlab import pipeline, tensor, validate
from unruhlab.channel import check_completeness, check_rindler, qubit_kraus
from unruhlab.closedform import assemble_qubit, check_coefficients, qubit_table
from unruhlab.errors import BadPhysicalParam, DegenerateOutcome, DimMismatch, NotPositive
from unruhlab.states import x_coefficients
from unruhlab.tensor import check_held, hold
from unruhlab.validate import run_validation


@pytest.fixture(scope="module")
def report():
    return run_validation(samples=25)


def test_all_mandatory_checks_pass(report):
    failed = [c.name for c in report.checks if c.passed is False]
    assert failed == []
    assert report.passed


def test_expected_check_names_present(report):
    names = {c.name for c in report.checks}
    assert "corrected_closed_form_vs_pipeline" in names
    assert "literal_equals_corrected_at_r0" in names
    assert "x_state_spectrum_vs_eigensolver" in names
    assert "kraus_completeness" in names
    assert "literal_defect_is_pair_population" in names


def test_informational_entries_report_known_deviations(report):
    by_name = {c.name: c for c in report.checks}
    ratio = by_name["printed_vs_trace_normalization_ratio"]
    assert ratio.passed is None
    assert abs(ratio.value - 1.0) > 1e-3
    restricted = by_name["qutrit_literal_vs_pipeline_restricted"]
    projected = by_name["qutrit_literal_vs_pipeline_projected"]
    assert restricted.value > 1e-3
    assert projected.value > 1e-3
    assert restricted.value >= projected.value


def test_report_text_format(report):
    text = report.to_text()
    assert "overall: PASS" in text
    assert text.count("PASS") >= 6
    assert "INFO" in text


def test_report_csv_parses(report):
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "name,status,value,threshold"
    assert len(lines) == 1 + len(report.checks)
    for line in lines[1:]:
        name, status, value, threshold = line.split(",")
        assert status in ("PASS", "FAIL", "INFO")
        float(value)
        if status != "INFO":
            float(threshold)


def test_seed_controls_reproducibility():
    a = run_validation(seed=7, samples=5)
    b = run_validation(seed=7, samples=5)
    assert a.to_csv() == b.to_csv()


def test_qutrit_literal_entries_match_the_discrepancy_reports():
    # The entries as the oracle builds them, on DensityMatrix states and
    # discrepancy reports: the same values, bit for bit, and the same
    # detail text, byte for byte.  The printed rounding-level eigenvalues
    # and the projected block's entries move if a block is solved in real
    # arithmetic or divided by its weight after the cast to complex.
    got, want = validate._info_qutrit_literal(), oracle._info_qutrit_literal()
    assert [c.name for c in got] == ["qutrit_literal_vs_pipeline_restricted",
                                     "qutrit_literal_vs_pipeline_projected",
                                     "qutrit_literal_min_eigenvalue"]
    for g, w in zip(got, want, strict=True):
        assert (g.name, g.passed, g.threshold, g.detail) == (w.name, w.passed, w.threshold, w.detail)
        assert np.float64(g.value).tobytes() == np.float64(w.value).tobytes()


# ----------------------------------------------------- the batched checks

def _oracle_checks(seed: int, samples: int):
    """The three sampled checks, one sample at a time, on one generator, and
    the generator's state after each."""
    rng = np.random.default_rng(seed)
    checks, states = [], []
    for check, n in ((oracle._check_corrected_vs_pipeline, samples),
                     (oracle._check_literal_at_zero_acceleration, max(10, samples // 5)),
                     (oracle._check_spectrum_formulas, samples)):
        checks.append(check(rng, n))
        states.append(rng.bit_generator.state)
    return checks, states


@pytest.mark.parametrize("seed", [7, 20240801])
def test_sampled_checks_match_the_one_sample_oracle(monkeypatch, seed):
    # 600 samples make two chunks of qubit points.  Each check draws its
    # samples once, so the generator's state after each draw must be the
    # one the per-sample draws leave.
    samples = 600
    monkeypatch.setattr(validate, "CHUNK_POINTS", 512)
    assert samples > validate.CHUNK_POINTS
    draw, states = validate._draw, []

    def recording(rng, *args):
        out = draw(rng, *args)
        states.append(rng.bit_generator.state)
        return out

    monkeypatch.setattr(validate, "_draw", recording)
    got = run_validation(seed=seed, samples=samples).checks[:3]
    want, want_states = _oracle_checks(seed, samples)
    assert states == want_states
    for batched, scalar in zip(got, want, strict=True):
        assert (batched.name, batched.status(), batched.threshold, batched.detail) == \
            (scalar.name, scalar.status(), scalar.threshold, scalar.detail)
        assert abs(batched.value - scalar.value) <= 1e-15


def _counting_blocks(monkeypatch) -> list[int]:
    """Wrap ``validate.x_coefficients``, which ``_draw`` calls once per
    ``SCAN_PIECE`` windows it scans, so once per block it draws at the
    sizes these tests draw; the returned list counts those calls."""
    blocks, coefficients = [0], validate.x_coefficients

    def counted(triples):
        blocks[0] += 1
        return coefficients(triples)

    monkeypatch.setattr(validate, "x_coefficients", counted)
    return blocks


def test_the_closed_form_check_runs_in_a_sweeps_chunks(monkeypatch):
    # One sample more than a sweep's chunk makes two chunks, each one
    # propagate call on the inputs engine_inputs built for that chunk.
    built, propagated = [], []
    engine_inputs, propagate = validate.engine_inputs, validate.propagate

    def building(*args):
        built.append(engine_inputs(*args))
        return built[-1]

    def propagating(rho0, dims, *inputs):
        propagated.append(any(all(a is b for a, b in zip(inputs, made, strict=True))
                              for made in built))
        return propagate(rho0, dims, *inputs)

    monkeypatch.setattr(validate, "engine_inputs", building)
    monkeypatch.setattr(validate, "propagate", propagating)
    samples = pipeline.CHUNK_POINTS + 1
    check = validate._check_corrected_vs_pipeline(np.random.default_rng(7), samples)
    assert check.passed
    assert propagated == [True, True]
    assert [len(kraus) for kraus, _, _ in built] == [pipeline.CHUNK_POINTS, 1]


def test_block_draws_equal_per_call_draws(monkeypatch):
    ranges = [(0.0, 0.95)] * 4 + [(0.0, np.pi / 4), (0.0, 2 * np.pi)]
    lows, highs = np.array(ranges).T
    blocks = _counting_blocks(monkeypatch)
    grew = False
    # At no triple draws budgeted a sample, the first block runs short
    # for most calls, so the path that draws a longer block runs too.
    for budget in (validate.TRIPLE_DRAWS, 0):
        monkeypatch.setattr(validate, "TRIPLE_DRAWS", budget)
        for seed in range(40):
            for samples in (1, 3, 50):
                rng = np.random.default_rng(seed)
                blocks[0] = 0
                c, u = validate._draw(rng, samples, ranges)
                grew |= blocks[0] > 1
                ref = np.random.default_rng(seed)
                want_c, want_u = [], []
                for _ in range(samples):
                    while True:
                        triple = ref.uniform(-1.0, 1.0, size=3)
                        if min(x_eigenvalues(*x_coefficients(triple))) >= 1e-6:
                            break
                    want_c.append(triple)
                    want_u.append([ref.uniform(lo, hi) for lo, hi in ranges])
                assert np.array_equal(c, want_c) and np.array_equal(u, want_u)
                # in range by construction: the sampled checks check none of it
                assert np.all((-1.0 <= c) & (c <= 1.0))
                assert np.all((lows <= u) & (u <= highs))
                # validate takes the literal states as assemble_qubit gives
                # them: qubit_table stacks b2 as b8 and b4 as b6, so each is
                # real and equals its transpose bit for bit
                lit = assemble_qubit(check_coefficients(
                    qubit_table(c, u[:, :2], u[:, 2:4], u[:, 4], "literal")))
                assert not lit.imag.any()
                assert lit.real.tobytes() == lit.real.swapaxes(-1, -2).tobytes()
                assert rng.bit_generator.state == ref.bit_generator.state
                assert rng.random() == ref.random()
    assert grew


def test_the_first_block_suffices(monkeypatch):
    # The range lists of the three sampled checks, as run_validation
    # passes them.
    draw, range_lists = validate._draw, []

    def recording(rng, samples, ranges):
        range_lists.append(ranges)
        return draw(rng, samples, ranges)

    monkeypatch.setattr(validate, "_draw", recording)
    run_validation(samples=1)
    monkeypatch.setattr(validate, "_draw", draw)
    assert len(range_lists) == 3
    blocks = _counting_blocks(monkeypatch)
    calls = 0
    for ranges in range_lists:
        for seed in range(50):
            for samples in (1, 10, 200, 1000):
                validate._draw(np.random.default_rng(seed), samples, ranges)
                calls += 1
    # A first block of the mean size drew about 30 % more blocks than
    # calls here.
    assert blocks[0] - calls <= 0.01 * calls


_RANGES = [(0.0, 0.95)] * 4 + [(0.0, np.pi / 4), (0.0, 2 * np.pi)]


def test_a_scan_in_pieces_draws_as_one_piece(monkeypatch):
    blocks = _counting_blocks(monkeypatch)
    grew = split = False
    # At no triple draws budgeted a sample, most calls draw a longer block.
    for budget in (validate.TRIPLE_DRAWS, 0):
        monkeypatch.setattr(validate, "TRIPLE_DRAWS", budget)
        for seed in range(8):
            for samples in (1, 7, 60):
                monkeypatch.setattr(validate, "SCAN_PIECE", 10 ** 9)
                one = np.random.default_rng(seed)
                blocks[0] = 0
                want = validate._draw(one, samples, _RANGES)
                grew |= blocks[0] > 1
                for piece in (1, 5, 64):
                    monkeypatch.setattr(validate, "SCAN_PIECE", piece)
                    rng = np.random.default_rng(seed)
                    blocks[0] = 0
                    got = validate._draw(rng, samples, _RANGES)
                    split |= blocks[0] > 1
                    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
                    assert rng.bit_generator.state == one.bit_generator.state
    assert grew and split


def test_a_scan_holds_one_piece_at_a_time(monkeypatch):
    import tracemalloc

    samples = 20_000
    monkeypatch.setattr(validate, "SCAN_PIECE", 4096)
    block = 8 * (samples * (validate.TRIPLE_DRAWS + len(_RANGES)) + 64 + 3 + len(_RANGES))
    tracemalloc.start()
    try:
        validate._draw(np.random.default_rng(3), samples, _RANGES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The block, the heads and the draws: about twice the block.  Testing
    # every window of the block at once peaked at about 11 times it.
    assert peak < 3 * block


def test_validate_eigensolves_each_sampled_state_once_per_check(monkeypatch):
    # Counted in matrices solved: the blocks larger than 1 x 1 passed to
    # the per-block solver, and the full solves that call eigvalsh
    # directly.  Every state check and measure solves a stack block by
    # block along its own support: a 1 x 1 block is its diagonal entry and
    # each larger block one matrix.  A
    # sampled X state, the pipeline's final X states and the corrected
    # closed forms have the X support, blocks [2, 2]: two matrices a check.
    # Per sample of the closed-form check: propagate's entry check, its exit
    # check and the strict check of the corrected closed form, 2 + 2 + 2;
    # per sample of the spectrum check: the strict check of its state, 2,
    # and its eigensolver side, a full solve of the 4 x 4 state, 1; per
    # sample of the r = 0 check: the strict check of the corrected state, 2
    # (N // 5 samples).
    # The fixed checks.  Each preset is checked once where it enters, when
    # its config parses it; prepare runs that checked state as it is.  The
    # singlet anchor, supported on the block {|01>, |10>} and two zero
    # diagonal entries: its entry check at parse, exit check and partial
    # transpose, one matrix each, 3.  The qutrit:1 anchor, supported on the
    # block {|00>, |11>, |22>}: its entry check at parse and exit check (at
    # r = 0 the state is unchanged), one each, and its partial transpose,
    # the three blocks {|ij>, |ji>} for i < j, 3; 5 in all.  Both anchors'
    # party-b marginals are diagonal: none.  The one qutrit literal point:
    # its entry check at parse, 1, its exit check, blocks
    # [3, 2, 2, 1, 1, 1, 1, 1], 3, the projected ladder block's strict
    # check, blocks [3, 1, 1, 1, 1, 1, 1], 1, and one full solve each of the
    # literal state, the restricted block and the projected block, 3; 8 in
    # all.  The literal spectrum is solved once, for both comparisons and
    # its own entry.
    fixed = 3 + 5 + 8
    counted, inside = [], []
    block_spectra, eigvalsh = tensor._block_spectra, np.linalg.eigvalsh

    def counting_blocks(blocks, size):
        if size > 1:
            counted.append(int(np.prod(blocks.shape[:-2])))
        inside.append(size)
        try:
            return block_spectra(blocks, size)
        finally:
            inside.pop()

    def counting(a, *args, **kwargs):
        if inside:
            assert inside[-1] >= 3          # only blocks of 3 or more reach eigvalsh
        else:
            counted.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(tensor, "_block_spectra", counting_blocks)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for samples in (100, 600):
        counted.clear()
        run_validation(seed=7, samples=samples)
        assert sum(counted) == (2 + 2 + 2) * samples + (2 + 1) * samples + 2 * (samples // 5) + fixed


def _corrupt(member, value):
    """A ``validate._draw`` that sets one member of the first check's draws."""
    draw = validate._draw
    calls = []

    def corrupted(rng, samples, ranges):
        c, u = draw(rng, samples, ranges)
        calls.append(samples)
        if len(calls) == 1:
            (c if member[0] == "c" else u)[550, member[1]] = value
        return c, u

    return corrupted


@pytest.mark.parametrize("member, value, error", [
    (("c", 0), 1.5, NotPositive),                # beyond the X-spec range: the entry check
    (("c", 1), np.nan, ValueError),              # the initial states' entry check
    (("u", 1), np.nan, DegenerateOutcome),       # a weak strength: the point is not kept
    (("u", 3), np.nan, ValueError),              # a reversing strength: the exit check
    (("u", 4), 1.0, BadPhysicalParam),           # r beyond pi/4, in engine_inputs
])
def test_a_bad_member_of_the_draws_raises(monkeypatch, member, value, error):
    monkeypatch.setattr(validate, "_draw", _corrupt(member, value))
    with pytest.raises(error):
        run_validation(seed=7, samples=600)


def test_the_phase_column_of_the_draws_reaches_no_check(monkeypatch):
    # The closed-form cross-check still draws a phase column, so that the
    # random stream stays as it was, but the engine leaves the phase out:
    # no value of it is checked or changes the report.
    want = run_validation(seed=7, samples=600).to_text()
    monkeypatch.setattr(validate, "_draw", _corrupt(("u", 5), np.inf))
    assert run_validation(seed=7, samples=600).to_text() == want


@pytest.mark.parametrize("members, error", [
    ({0: 1.0, 1: 1.0, 2: 1.0}, NotPositive),           # not a state: entry check
    ({0: 0.0, 1: 0.0, 2: -1.0}, DegenerateOutcome),    # |01>, |10> only ...
])
def test_a_bad_initial_state_raises(monkeypatch, members, error):
    draw = validate._draw

    def corrupted(rng, samples, ranges):
        c, u = draw(rng, samples, ranges)
        for k, v in members.items():
            c[550, k] = v
        u[550, :2] = 1.0                              # ... under a full weak filter
        return c, u

    monkeypatch.setattr(validate, "_draw", corrupted)
    with pytest.raises(error):
        run_validation(seed=7, samples=600)


def test_stack_checks_raise_on_one_bad_member():
    kraus = qubit_kraus(np.linspace(0.0, np.pi / 4, 5))
    assert check_completeness(kraus).max() <= 1e-12
    kraus[3, 1, 1, 0] *= 1.01
    with pytest.raises(DimMismatch):
        check_completeness(kraus)
    table = np.tile(qubit_table((-0.5, -0.2, 0.3), (0.2, 0.4), (0.1, 0.3), 0.5), (5, 1))
    check_coefficients(table)
    for index, value, error in ((4, -1e-13, NotPositive), (None, 0.0, DegenerateOutcome)):
        bad = table.copy()
        bad[2, index if index is not None else slice(None)] = value
        with pytest.raises(error):
            check_coefficients(bad)
    states = assemble_qubit(table)
    states[2] += np.diag([0.2, -0.2, 0.0, 0.0])
    with pytest.raises(NotPositive):
        check_held(hold(states))
    assert np.array_equal(check_rindler([0.1, np.pi / 4 + 1e-13]), [0.1, np.pi / 4])
