"""The option table's reader of argv (``cli._read_argv``) against argparse.

The reader takes argv written in the table's plain grammar and leaves every
other argv to argparse. Whenever it accepts an argv, argparse must read the
same argv to the same attributes, with the same types."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
from test_bench_goldens import workloads

from su3kahler import cli

ORBIFOLD_CONE = '{"A": [[1,0],[1,0],[2,-1]], "B": [[0,1],[0,1],[-1,2]]}'

FLAGS = sorted({o.flag for o in cli._GLOBAL_OPTIONS} | {
    o.flag for command in cli._TABLE.values() for o in command.options
})
# unique and ambiguous prefixes of the flags and commands, and other tokens
# argparse gives a meaning to
OTHER_FLAGS = ["--conf", "--t", "--ti", "--tol", "--s", "--se", "--o", "--br", "--interp", "-h", "--help", "--", "-"]
COMMANDS = [*cli._TABLE, "chec", "bogus", ""]
VALUES = [
    "0", "3", "8", "100", "-1", "-3", "+5", " 7 ", "1_000", "٣", "１２", "0x10", "2.5",
    "nan", "NaN", "inf", "-inf", "1e400", "1e-9", "-1e-9", "1e-300",
    "generic", "degenerate", "Generic", "1/2,-3/7", "0,0",
    ORBIFOLD_CONE, "{...}", "{", "", "x", "check", "-x", "--config", "out.json",
]

# values each option's type reads, beside the mixed VALUES
VALID = {
    int: ["0", "3", "100", "+5", " 7 ", "1_000", "٣", "１２"],
    str: [ORBIFOLD_CONE, "{...}", "", "x y", "check", "1/2,-3/7"],
}

flag = st.sampled_from(FLAGS + OTHER_FLAGS)
value = st.sampled_from(VALUES) | st.text(max_size=4)
piece = st.one_of(
    st.tuples(flag, value).map(list),  # a flag and its value
    st.tuples(flag, value).map(lambda fv: [f"{fv[0]}={fv[1]}"]),
    flag.map(lambda f: [f]),
    value.map(lambda v: [v]),
)
globals_ = st.lists(st.sampled_from([["--timing"], ["--out", "out.json"], ["--out", "-o"]]), max_size=2)


@st.composite
def argvs(draw):
    """Mostly the table's grammar, each part at times replaced or followed
    by other tokens."""
    argv = [token for part in draw(globals_) for token in part]
    command = draw(st.sampled_from(list(cli._TABLE)) | st.sampled_from(COMMANDS))
    argv.append(command)
    if command in cli._TABLE:
        for option in draw(st.permutations(cli._TABLE[command].options)):
            if option.required or draw(st.booleans()):
                valid = st.sampled_from(option.choices or VALID[option.type])
                argv += [option.flag, draw(valid | value if draw(st.booleans()) else valid)]
    if draw(st.booleans()):
        for part in draw(st.lists(piece, min_size=1, max_size=3)):
            argv += part
    return argv


def typed(namespace) -> dict:
    """The attributes with their types, NaN equal to itself."""
    return {
        k: (type(v), "nan" if isinstance(v, float) and math.isnan(v) else v)
        for k, v in vars(namespace).items()
    }


def assert_read_as_argparse_reads(argv):
    args = cli._read_argv(argv)
    if args is not None:
        assert typed(args) == typed(cli._parser().parse_args(argv)), argv
    return args


@given(argvs())
@settings(max_examples=600, deadline=None)
def test_accepted_argv_reads_as_argparse_reads(argv):
    assert_read_as_argparse_reads(argv)


def test_table_grammar_accepts_and_refuses():
    accepted = [
        ["check", "--config", ORBIFOLD_CONE],
        ["--timing", "--out", "r.json", "check", "--interp-steps", "٣", "--config", "{}"],
        ["--out", "check", "--timing", "cohomology"],
        ["verify", "--samples", "0", "--config", "", "--seed", " 7 "],
        ["cohomology", "--branch", "degenerate", "--beta", "1/2,-3/7"],
        ["enumerate", "--bound", "1_000"],
    ]
    refused = [
        [], ["-h"], ["check", "--help"], ["check"], ["bogus"],
        ["check", "--conf", "{}"],  # an abbreviation
        ["check", "--config={}"],
        ["check", "--config", "{}", "--config", "{}"],  # a repeat
        ["--timing", "--timing", "cohomology"],
        ["check", "--config", "{}", "--interp-steps", "-3"],  # a negative number
        ["check", "--config", "{}", "--interp-steps", "x"],
        ["check", "--config"],  # a missing value
        ["cohomology", "--branch", "Generic"],  # not a choice
        ["check", "--config", "{}", "--timing"],  # a global option after the command
        ["check", "--config", "{}", "extra"],
        ["check", "--", "--config", "{}"],
        ["verify", "--config", "{}", "--tol-pos", "nan"],  # removed options
        ["verify", "--config", "{}", "--tol", "1e-9"],
    ]
    assert all(assert_read_as_argparse_reads(argv) is not None for argv in accepted)
    assert all(cli._read_argv(argv) is None for argv in refused)


def test_every_benchmark_pool_argv_is_read_by_the_table():
    """Every argv the benchmark's audit and certify pools make (as
    ``perfbench/workloads.py`` builds its ops) is read by the table, to
    argparse's attributes."""
    argvs = set()
    for category in workloads.load_golden("audit")["categories"].values():
        for command in category["expected"]:
            for item in category["items"]:
                if command == "cohomology":
                    argvs.add(("cohomology", *item))
                else:
                    config = item if isinstance(item, str) else workloads.ws_config(item)
                    argvs.add((command, "--config", config))
    for triples in workloads.load_golden("certify")["categories"].values():
        for config, samples, seed in triples:
            argvs.add(("verify", "--config", config, "--samples", str(samples), "--seed", str(seed)))
    assert len(argvs) > 10000
    refused = [argv for argv in sorted(argvs) if assert_read_as_argparse_reads(list(argv)) is None]
    assert not refused, refused[:3]
