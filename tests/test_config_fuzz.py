"""Fuzzing of every numeric config key through `bct train`.

Each case runs one epoch on a tiny 16 px dataset with one numeric key set
to zero, a negative, NaN, an infinity, a huge or a tiny number, under one
of the optimizers and losses. Whatever the value, the command must exit 0,
2, 3 or 4 without raising and without a warning, which would point at
program code rather than at the bad value.

The integers are drawn from a fixed list, never at random: a merely large
one (say 10**5 for data.image_size) is a valid request for more memory
than a test should take. The huge ones ask for more than any machine has,
so they fail before anything is allocated.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bct import config
from bct.cli import main
from bct.data import MANIFEST_NAME, synth_generate

NUMERIC_PARSERS = (config._parse_int, config._parse_float, config._parse_int_list, config._parse_ratios)
NUMERIC_KEYS = [key for key in config.KEYS if config._REGISTRY[key][0] in NUMERIC_PARSERS]
TOKENS = ["0", "-0", "-1", "0.5", "1", "nan", "inf", "-inf", "1e30", "1e308", "-1e308", "1e-308", "5e-324",
          str(2**40), str(2**64), str(-(2**64))]
CONTEXTS = [
    ["--optim.kind=sgd", "--loss.kind=focal"],
    ["--optim.kind=adam", "--loss.kind=cross_entropy", "--loss.reduction=sum"],
    ["--optim.kind=rectadam", "--loss.kind=binary_cross_entropy"],
]
# a run whose max_epochs is fuzzed stops at its first epoch's convergence check
CONVERGE_AT_ONCE = ["--train.acc_threshold=1e-9", "--train.loss_threshold=1e9"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz") / "ds"
    synth_generate(root, n_per_class=6, seed=1, noise_level=0.05, image_size=16, family="checker", cell_size=4)
    return root, (root / MANIFEST_NAME).read_text(encoding="utf-8")


def values(key):
    """(strategy, the explicit examples): every token once, then random draws that mix in arbitrary floats."""
    token = st.sampled_from(TOKENS) | st.floats().map(repr)
    parser = config._REGISTRY[key][0]
    if parser is config._parse_ratios:
        return st.lists(token, min_size=2, max_size=4).map(",".join), [f"{t},0.5,0.5" for t in TOKENS]
    if parser is config._parse_int_list:
        return st.lists(token, min_size=1, max_size=3).map(",".join), [f"{t},2" for t in TOKENS]
    return token, TOKENS


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_numeric_key_exits_cleanly(dataset, key):
    root, manifest = dataset
    strategy, explicit = values(key)

    def run(value, context):
        (root / MANIFEST_NAME).write_text(manifest, encoding="utf-8")  # undo a data.seed re-split
        argv = ["train", "--quiet", f"--data.root={root}", "--data.image_size=16", "--model.channels=2,2",
                "--model.dense_width=4", "--train.batch_size=4", "--train.max_epochs=1", *context]
        if key == "train.max_epochs":
            argv += CONVERGE_AT_ONCE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, f"--{key}={value}"]) in (0, 2, 3, 4)

    for i, value in enumerate(explicit):
        run(value, CONTEXTS[i % len(CONTEXTS)])
    settings(max_examples=4, deadline=None, database=None)(given(value=strategy, context=st.sampled_from(CONTEXTS))(run))()


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_dash_value_as_its_own_token_exits_as_the_equals_form(dataset, key):
    """`--key -v` as two argv items gives the exit code of `--key=-v`: the value is never taken for a flag."""
    root, manifest = dataset
    strategy, explicit = values(key)

    def exit_code(value_argv, context):
        (root / MANIFEST_NAME).write_text(manifest, encoding="utf-8")  # undo a data.seed re-split
        argv = ["train", "--quiet", f"--data.root={root}", "--data.image_size=16", "--model.channels=2,2",
                "--model.dense_width=4", "--train.batch_size=4", "--train.max_epochs=1", *context]
        if key == "train.max_epochs":
            argv += CONVERGE_AT_ONCE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main([*argv, *value_argv])

    def run(value, context):
        assert exit_code([f"--{key}", value], context) == exit_code([f"--{key}={value}"], context)

    dashed = [value for value in explicit if value.startswith("-")]
    assert dashed
    for i, value in enumerate(dashed):
        run(value, CONTEXTS[i % len(CONTEXTS)])
    dash_first = strategy.map(lambda value: value if value.startswith("-") else "-" + value)
    settings(max_examples=4, deadline=None, database=None)(given(value=dash_first, context=st.sampled_from(CONTEXTS))(run))()
